package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"djinn/internal/gateway"
	djmetrics "djinn/internal/metrics"
	"djinn/internal/models"
	"djinn/internal/nn"
	"djinn/internal/router"
	"djinn/internal/service"
	"djinn/internal/tensor"
	"djinn/internal/tonic"
)

// The traced run times calls into each layer's public functions from
// outside: wrappers around the backends the layers call through, plus
// the counters and histograms the layers already export. Nothing is
// added inside the program.

// acc totals the calls one wrapper saw.
type acc struct {
	n     int64
	total time.Duration
}

// span totals a wrapper's calls while on.
type span struct {
	on  atomic.Bool
	mu  sync.Mutex
	acc acc
}

func (s *span) add(d time.Duration) {
	s.mu.Lock()
	s.acc.n++
	s.acc.total += d
	s.mu.Unlock()
}

func (s *span) sum() acc {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acc
}

// tonicAcc totals one Tonic app's calls: the whole call, the time
// inside its DjiNN backend calls, and the pre- and post-processing
// around them (time between two backend calls, CHK's feature step
// after its internal POS query, counts as pre-processing).
type tonicAcc struct {
	n                       int64
	call, inside, pre, post time.Duration
}

// clientTap wraps one sender's DJRT client while the traced phase
// runs. Only its sender goroutine uses it.
type clientTap struct {
	next service.Backend
	span *span // time inside backend calls

	t0, first, last time.Time
	inside          time.Duration
	tonic           map[string]*tonicAcc
}

func (c *clientTap) begin() {
	c.t0, c.first, c.inside = time.Now(), time.Time{}, 0
}

func (c *clientTap) Infer(app string, in []float32) ([]float32, error) {
	s := time.Now()
	out, err := c.next.Infer(app, in)
	e := time.Now()
	if c.first.IsZero() {
		c.first = s
	}
	c.last = e
	c.inside += e.Sub(s)
	c.span.add(e.Sub(s))
	return out, err
}

// end closes one Tonic call of app.
func (c *clientTap) end(app string) {
	t1 := time.Now()
	if c.tonic == nil {
		c.tonic = map[string]*tonicAcc{}
	}
	t := c.tonic[app]
	if t == nil {
		t = &tonicAcc{}
		c.tonic[app] = t
	}
	t.n++
	t.call += t1.Sub(c.t0)
	t.inside += c.inside
	if c.first.IsZero() {
		t.pre += t1.Sub(c.t0)
		return
	}
	t.pre += c.first.Sub(c.t0) + c.last.Sub(c.first) - c.inside
	t.post += t1.Sub(c.last)
}

// serverSnap is one app's server counters and stage histograms.
type serverSnap struct {
	stats  service.Stats
	stages [4]djmetrics.HistogramSnapshot
}

var serverStages = [4]djmetrics.Stage{
	djmetrics.StageQueueWait, djmetrics.StageBatchAssembly, djmetrics.StageForward, djmetrics.StageRespond,
}

func snapServer(srv *service.Server, apps []models.App) map[string]serverSnap {
	out := map[string]serverSnap{}
	for _, a := range apps {
		name := tonic.ServiceName(a)
		var s serverSnap
		s.stats, _ = srv.StatsFor(name)
		for i, st := range serverStages {
			s.stages[i], _ = srv.StageHistogram(name, st)
		}
		out[name] = s
	}
	return out
}

func routerSent(rt *router.Router) int64 {
	var n int64
	for _, b := range rt.Stats() {
		n += b.Stats.Sent
	}
	return n
}

// procSnap is the process-wide runtime/metrics the benchmark reads.
type procSnap struct {
	allocs          uint64
	gcCPU, totalCPU float64
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProc() procSnap {
	s := slices.Clone(procSamples)
	metrics.Read(s)
	return procSnap{allocs: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}

// heapPeak samples the live heap every few milliseconds until stopped.
type heapPeak struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// end stops sampling and returns the peak in MB.
func (h *heapPeak) end() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak.Load()) / (1 << 20)
}

// planTiming times Plan.Forward for each app at the instance counts
// one and two queries bring to a batch, float32 and one intra-op
// worker as the server runs it: median wall time, the GFLOP/s that
// gives from Net.FLOPs, and heap allocations per Forward.
func planTiming(apps []models.App, seed uint64, m map[string]float64) {
	rng := tensor.NewRNG(seed)
	for _, a := range apps {
		name := tonic.ServiceName(a)
		net := models.BuildCached(a)
		plan := net.CompileOpts(2*maxInstances(a), nn.CompileOpts{Workers: 1})
		for q := 1; q <= 2; q++ {
			batch := q * maxInstances(a)
			x := tensor.New(append([]int{batch}, net.InShape()...)...)
			rng.FillUniform(x.Data(), 0, 1)
			plan.Forward(x)
			var times []time.Duration
			before := readProc().allocs
			for start := time.Now(); len(times) < 3 || time.Since(start) < 300*time.Millisecond; {
				t0 := time.Now()
				plan.Forward(x)
				times = append(times, time.Since(t0))
			}
			allocs := float64(readProc().allocs-before) / float64(len(times))
			slices.Sort(times)
			med := times[len(times)/2]
			key := fmt.Sprintf("nn.%s.q%d.", name, q)
			m[key+"forward_ms"] = ms(med)
			m[key+"gflops"] = net.FLOPs(batch) / med.Seconds() / 1e9
			if q == 2 {
				m["nn."+name+".allocs"] = allocs
			}
		}
	}
}

// layer is one row of the traced decomposition: a layer's self time
// summed over the traced phase's correct answers.
type layer struct {
	name string
	self time.Duration
}

// decomposition splits the traced phase's end-to-end time into layer
// self times. unaccounted is whatever the layers do not explain, so
// the rows plus unaccounted always add up to the end-to-end total.
type decomposition struct {
	queries     int64
	e2e         time.Duration
	layers      []layer
	unaccounted time.Duration
}

func decompose(queries int64, e2e time.Duration, layers []layer) decomposition {
	d := decomposition{queries: queries, e2e: e2e, layers: layers, unaccounted: e2e}
	for _, l := range layers {
		d.unaccounted -= l.self
	}
	return d
}

// mean converts a phase total to milliseconds per correct answer.
func (d decomposition) mean(t time.Duration) float64 {
	if d.queries == 0 {
		return 0
	}
	return ms(t) / float64(d.queries)
}

func (d decomposition) print(w io.Writer) {
	fmt.Fprintf(w, "traced decomposition over %d answers, mean per answer:\n", d.queries)
	row := func(name string, t time.Duration) {
		share := 0.0
		if d.e2e > 0 {
			share = float64(t) / float64(d.e2e)
		}
		fmt.Fprintf(w, "  %-28s %10.3f ms %7.1f%%\n", name, d.mean(t), 100*share)
	}
	for _, l := range d.layers {
		row(l.name, l.self)
	}
	row("unaccounted", d.unaccounted)
	row("end-to-end", d.e2e)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}

// perLayerApps are the apps any workload serves; a traced run reports
// every app's metrics, zero for apps its workload does not use.
var perLayerApps = []string{"pos", "chk", "ner", "dig"}

// perLayerMetrics lists every metric a traced run reports, in the
// order BENCHMARK.json declares them.
func perLayerMetrics() []metricSpec {
	var out []metricSpec
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{n, unit})
		}
	}
	for _, a := range perLayerApps {
		p := "service." + a + "."
		add("ms", p+"queue_wait_ms", p+"batch_assembly_ms", p+"forward_ms", p+"respond_ms")
		add("queries", p+"batch_queries")
	}
	add("ms", "service.wire_ms")
	add("count", "service.shed", "service.expired")
	for _, a := range perLayerApps {
		p := "nn." + a + "."
		add("ms", p+"q1.forward_ms", p+"q2.forward_ms")
		add("GFLOP/s", p+"q1.gflops", p+"q2.gflops")
		add("allocs", p+"allocs")
	}
	for _, a := range perLayerApps {
		p := "tonic." + a + "."
		add("ms", p+"pre_ms", p+"post_ms")
		add("ratio", p+"dnn_frac")
	}
	add("ms", "router.self_ms")
	add("count", "router.retries")
	add("ms", "gateway.hit_ms", "gateway.miss_self_ms")
	add("ratio", "gateway.cache_hit_ratio")
	add("count", "gateway.cache_fills", "gateway.cache_shared", "gateway.cache_evictions", "gateway.non2xx")
	add("allocs", "process.allocs_per_query")
	add("ratio", "process.gc_cpu_frac")
	add("ms", "loadgen.p50_ms", "loadgen.tail_ms", "loadgen.lag_ms", "loadgen.lag_p99_ms")
	add("ratio", "loadgen.repeat_share", "trace.overhead_frac")
	add("ms", "unaccounted_ms")
	return out
}

// runTraced measures the per-layer metrics: an untraced open-loop
// phase, then the same load with every tap on, then Plan.Forward
// timings with the stack idle.
func runTraced(in *inputs, seed uint64, d time.Duration) (result, decomposition, error) {
	s := in.spec
	var tp taps
	if s.http {
		tp = taps{gateway: &timedBackend{span: &span{}}, router: &timedBackend{span: &span{}}}
	}
	st, err := buildStack(s.apps, tp)
	if err != nil {
		return result{}, decomposition{}, err
	}
	defer st.close()
	drv, err := newDriver(in, st, true)
	if err != nil {
		return result{}, decomposition{}, err
	}
	defer drv.close()
	var spans []*span
	for _, ws := range drv.wire {
		spans = append(spans, ws.tap.span)
	}
	if s.http {
		spans = append(spans, tp.gateway.span, tp.router.span)
	}
	var hits, misses [senders]acc
	var observing atomic.Bool
	drv.obs = func(w int, rt time.Duration, cached bool) {
		if !observing.Load() {
			return
		}
		if cached {
			hits[w].n++
			hits[w].total += rt
		} else {
			misses[w].n++
			misses[w].total += rt
		}
	}
	setTracing := func(on bool) {
		for _, sp := range spans {
			sp.on.Store(on)
		}
		observing.Store(on)
	}

	rng := tensor.NewRNG(seed ^ 0x5eed)
	warm := closedLoop("warmup", d, warmupQueries*len(s.apps), 0, s.slo, drv.issue)
	base := int(warm.sent())
	srvA := snapServer(st.srv, s.apps)
	p0 := readProc()
	plain := openLoop("untraced", schedule(rng, s.rate, frac(d, 0.45)), base, s.slo, drv.issue)
	p1 := readProc()
	base += int(plain.sent())

	srv0, gw0, sent0 := snapServer(st.srv, s.apps), st.gw.Stats(), routerSent(st.rt)
	setTracing(true)
	traced := openLoop("traced", schedule(rng, s.rate, frac(d, 0.45)), base, s.slo, drv.issue)
	setTracing(false)
	srv1, gw1, sent1 := snapServer(st.srv, s.apps), st.gw.Stats(), routerSent(st.rt)
	base += int(traced.sent())

	phases := []*phase{warm, plain, traced}
	for _, p := range phases {
		fmt.Println(p)
	}

	m := map[string]float64{}
	planTiming(s.apps, seed, m)
	stageSum, stagesTotal, calls := serverMetrics(m, srvA, srv0, srv1)
	layers := []layer{{"loadgen.lag", traced.lagSum}}
	if s.http {
		var hit, miss acc
		for w := range hits {
			hit.n += hits[w].n
			hit.total += hits[w].total
			miss.n += misses[w].n
			miss.total += misses[w].total
		}
		g := tp.gateway.span.sum()
		m["router.retries"] = float64(sent1 - sent0 - g.n)
		layers = append(layers, httpLayers(m, hit, miss, g, tp.router.span.sum(), stagesTotal, gw0, gw1)...)
	} else {
		layers = append(layers, wireLayers(m, drv.wire, stagesTotal, calls)...)
	}
	for i, stage := range serverStages {
		layers = append(layers, layer{"service." + stage.String(), stageSum[i]})
	}
	dec := decompose(traced.counts[ok], traced.e2eSum, layers)
	dec.print(os.Stdout)

	m["process.allocs_per_query"] = ratio(float64(p1.allocs-p0.allocs), float64(plain.sent()))
	m["process.gc_cpu_frac"] = ratio(p1.gcCPU-p0.gcCPU, p1.totalCPU-p0.totalCPU)
	m["loadgen.p50_ms"] = latencyMS(plain, 0.5)
	m["loadgen.tail_ms"] = latencyMS(plain, s.tail)
	m["loadgen.lag_ms"] = dec.mean(traced.lagSum)
	m["loadgen.lag_p99_ms"] = ms(plain.lagQuantile(0.99))
	m["loadgen.repeat_share"] = in.repeatShare(base)
	m["trace.overhead_frac"] = ratio(latencyMS(traced, 0.5)-latencyMS(plain, 0.5), latencyMS(plain, 0.5))
	m["unaccounted_ms"] = dec.mean(dec.unaccounted)

	return summarize(phases, perLayerMetrics(), m), dec, nil
}

// serverMetrics fills the per-app service metrics over the traced
// phase (srv0 to srv1; shedding from srvA, before the untraced phase)
// and returns the stage time totals and the number of queries the
// server answered.
func serverMetrics(m map[string]float64, srvA, srv0, srv1 map[string]serverSnap) (stageSum [4]time.Duration, total time.Duration, calls int64) {
	for name, b := range srv1 {
		a := srv0[name]
		for i, stage := range serverStages {
			dh := b.stages[i].Sub(a.stages[i])
			stageSum[i] += dh.Sum
			total += dh.Sum
			if dh.Count > 0 {
				m["service."+name+"."+stage.String()+"_ms"] = ms(dh.Sum) / float64(dh.Count)
			}
			if i == 0 {
				calls += dh.Count
			}
		}
		if db := b.stats.Batches - a.stats.Batches; db > 0 {
			per := float64(sentenceWords)
			if name == "dig" {
				per = digImages
			}
			m["service."+name+".batch_queries"] = float64(b.stats.Instances-a.stats.Instances) / float64(db) / per
		}
		m["service.shed"] += float64(b.stats.Shed() - srvA[name].stats.Shed())
		m["service.expired"] += float64(b.stats.Expired - srvA[name].stats.Expired)
	}
	return stageSum, total, calls
}

// httpLayers splits the HTTP path above the server's stages: the
// gateway (round trips minus its backend calls g), the router (g minus
// its calls into the server r) and the in-process dispatch (r minus
// the stages).
func httpLayers(m map[string]float64, hit, miss, g, r acc, stages time.Duration, gw0, gw1 gateway.Stats) []layer {
	m["gateway.hit_ms"] = ratio(ms(hit.total), float64(hit.n))
	m["gateway.miss_self_ms"] = ratio(ms(miss.total-g.total), float64(miss.n))
	m["router.self_ms"] = ratio(ms(g.total-r.total), float64(g.n))
	m["service.wire_ms"] = ratio(ms(r.total-stages), float64(r.n))
	c0, c1 := gw0.Cache, gw1.Cache
	m["gateway.cache_hit_ratio"] = ratio(float64(c1.Hits-c0.Hits), float64(c1.Hits-c0.Hits+c1.Misses-c0.Misses))
	m["gateway.cache_fills"] = float64(c1.Fills - c0.Fills)
	m["gateway.cache_shared"] = float64(c1.Dedup - c0.Dedup)
	m["gateway.cache_evictions"] = float64(c1.Evictions - c0.Evictions)
	for code, n := range gw1.ByStatus {
		if code != 200 {
			m["gateway.non2xx"] += float64(n - gw0.ByStatus[code])
		}
	}
	return []layer{
		{"gateway", hit.total + miss.total - g.total},
		{"router", g.total - r.total},
		{"service.dispatch", r.total - stages},
	}
}

// wireLayers splits the DJRT path above the server's stages: Tonic
// pre- and post-processing (app call minus backend calls) and the wire
// (backend calls minus the stages), calls being the server's count.
func wireLayers(m map[string]float64, wire []wireSender, stages time.Duration, calls int64) []layer {
	var inside, tonicSelf time.Duration
	tonics := map[string]*tonicAcc{}
	for _, ws := range wire {
		inside += ws.tap.span.sum().total
		for app, t := range ws.tap.tonic {
			agg := tonics[app]
			if agg == nil {
				agg = &tonicAcc{}
				tonics[app] = agg
			}
			agg.n += t.n
			agg.call += t.call
			agg.inside += t.inside
			agg.pre += t.pre
			agg.post += t.post
		}
	}
	for app, t := range tonics {
		tonicSelf += t.call - t.inside
		m["tonic."+app+".pre_ms"] = ratio(ms(t.pre), float64(t.n))
		m["tonic."+app+".post_ms"] = ratio(ms(t.post), float64(t.n))
		m["tonic."+app+".dnn_frac"] = ratio(float64(t.inside), float64(t.call))
	}
	m["service.wire_ms"] = ratio(ms(inside-stages), float64(calls))
	return []layer{{"tonic", tonicSelf}, {"service.wire", inside - stages}}
}
