package experiments

import (
	"fmt"
	"time"

	"djinn/internal/router"
	"djinn/internal/service"
	"djinn/internal/tensor"
	"djinn/internal/trace"
	"djinn/internal/workload"
)

// OverheadResult is one tracing-overhead measurement: the same fleet
// driven with tracing off and with every query traced.
type OverheadResult struct {
	Off      workload.DriveResult // no query carries a trace ID
	On       workload.DriveResult // every query carries one (worst case)
	DeltaPct float64              // (off-on)/off throughput loss, percent
	// Sample is one traced query's merged cross-tier timeline (router +
	// replica spans under one ID), empty if none was retained.
	Sample trace.Trace
}

// TracingOverhead boots a replicas-wide in-process fleet running the
// paced bench model behind the router and drives it twice with the
// identical closed-loop workload: once untraced, once with a trace ID
// minted on every query — the worst case, since real deployments
// sample. The delta between the two runs is the end-to-end cost of the
// tracing plane: ID generation client-side, the extra wire header, the
// per-hop span records, and the bounded store inserts.
//
// The paced model makes each replica's capacity a sleep, not a forward
// pass, so the measured delta isolates the serving path the tracing
// code touches instead of drowning it in compute.
func TracingOverhead(replicas, workers int, per time.Duration) OverheadResult {
	run := func(traceEvery int) (workload.DriveResult, trace.Trace) {
		rt := router.New(router.Config{})
		defer rt.Close()
		servers := make([]*service.Server, 0, replicas)
		stores := []*trace.Store{rt.TraceStore()}
		for i := 0; i < replicas; i++ {
			srv := service.NewServer()
			srv.SetLogger(func(string, ...any) {})
			srv.SetTraceStore(trace.NewStore(fmt.Sprintf("replica-%d", i), trace.DefaultStoreSize))
			if err := srv.Register("bench", benchNet(1), service.AppConfig{
				BatchInstances: 2,
				Workers:        1,
			}); err != nil {
				panic(err)
			}
			servers = append(servers, srv)
			stores = append(stores, srv.TraceStore())
			if err := rt.AddBackend(fmt.Sprintf("replica-%d", i), srv); err != nil {
				panic(err)
			}
		}
		defer func() {
			for _, srv := range servers {
				srv.Close()
			}
		}()
		res := workload.DriveClosedLoopOptions(rt, "bench", func(rng *tensor.RNG) []float32 {
			in := make([]float32, 8)
			rng.FillNorm(in, 0, 0.5)
			return in
		}, workload.DriveOptions{Workers: workers, Duration: per, TraceEvery: traceEvery})
		// Merge one query's router + replica views into a cross-tier
		// timeline while the stores are still alive. Start from the
		// router store's retained traces (the bounded stores evict
		// oldest-first, so an ID sampled early in the run may be gone);
		// a candidate only qualifies once a replica store contributed
		// spans beyond the router's own.
		var sample trace.Trace
		for _, cand := range rt.TraceStore().Slowest(16) {
			if tr, ok := trace.Merge(cand.ID, stores...); ok && len(tr.Spans) > len(cand.Spans) {
				sample = tr
				break
			}
		}
		return res, sample
	}

	off, _ := run(0)
	on, sample := run(1)
	r := OverheadResult{Off: off, On: on, Sample: sample}
	if off.QPS > 0 {
		r.DeltaPct = (off.QPS - on.QPS) / off.QPS * 100
	}
	return r
}

// RenderOverhead prints the tracing-overhead experiment: throughput and
// tail latency with tracing off vs every query traced, plus one merged
// cross-tier trace as the observability artifact. The acceptance target
// is a worst-case throughput delta under a few percent — tracing must
// be cheap enough to leave sampled-on in production, in the WSC spirit
// of measuring the fleet you actually run.
func (p Platform) RenderOverhead() string {
	const replicas, workers = 3, 8
	res := TracingOverhead(replicas, workers, 500*time.Millisecond)
	out := fmt.Sprintf("Extension: tracing overhead — %d replicas behind the router, %d closed-loop clients\n", replicas, workers)
	t := &table{header: []string{"tracing", "QPS", "ok", "p50", "p95", "p99"}}
	row := func(label string, r workload.DriveResult) {
		t.add(label, f1(r.QPS), fmt.Sprint(r.Queries),
			r.Latency.P50.Round(10*time.Microsecond).String(),
			r.Latency.P95.Round(10*time.Microsecond).String(),
			r.Latency.P99.Round(10*time.Microsecond).String())
	}
	row("off", res.Off)
	row("every query", res.On)
	out += t.String()
	out += fmt.Sprintf("throughput delta with tracing on every query: %.2f%% (target < 2%%; real deployments sample)\n", res.DeltaPct)
	if len(res.Sample.Spans) > 0 {
		out += "\nsample cross-tier trace (router + replica spans merged under one ID):\n"
		out += res.Sample.Format()
	}
	return out
}
