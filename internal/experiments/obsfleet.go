package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"djinn/internal/alerts"
	"djinn/internal/controlplane"
	"djinn/internal/events"
	"djinn/internal/nn"
	"djinn/internal/router"
	"djinn/internal/service"
	"djinn/internal/tensor"
	"djinn/internal/timeseries"
	"djinn/internal/workload"
)

// The obsfleet experiment closes the observability loop the fleet
// grew this PR: a replica kill mid-load must surface as a journaled
// mark-down, drive the SLO burn-rate alert through pending → firing
// while the kill window is still open, and resolve after the control
// plane re-places the app — with the collector's merged-histogram
// fleet p99 shown against the average-of-replica-p99s it replaces,
// and the whole instrumentation plane costing under 2% of the run.

// ObsFleetResult summarises one observed kill-mid-load run.
type ObsFleetResult struct {
	Replicas int
	Rate     float64 // calibrated open-loop rate (queries/sec)

	Before, During, After workload.MixedResult

	// Alert timeline, absolute times lifted from the journal.
	KillAt     time.Time
	PendingAt  time.Time
	FiringAt   time.Time
	ReplacedAt time.Time // the post-kill placement flip
	ResolvedAt time.Time

	// Fleet tail rollup over the whole run: the merged-histogram
	// quantile vs the mean of per-replica p99s (which hides the tail).
	FleetP99      time.Duration
	AvgReplicaP99 time.Duration

	// Overhead accounting: the collector's cumulative sampling time
	// against the observed phase's wall clock, plus an A/B throughput
	// comparison of the same healthy window with and without the
	// observability plane running.
	CollectorSelf time.Duration
	ObservedWall  time.Duration
	OverheadFrac  float64
	BaselineQPS   float64
	ObservedQPS   float64

	// EventsByKind counts every journal entry the run produced.
	EventsByKind map[events.Kind]int
}

// stall is a pseudo-layer whose forward pass costs fixed wall-clock
// time per instance: it stands in for a fixed-capacity accelerator
// stage, which makes the experiment's overload arithmetic — one
// replica serves ~1/perInst queries per second, no more — hold on any
// host instead of varying with how many cores the test box has and
// how many replicas contend for them.
type stall struct {
	name    string
	perInst time.Duration
}

func (s *stall) Name() string                     { return s.name }
func (s *stall) Kind() string                     { return "stall" }
func (s *stall) OutShape(in []int) ([]int, error) { return in, nil }
func (s *stall) Params() []*nn.Param              { return nil }
func (s *stall) Kernels(in []int, batch int, ks []nn.Kernel) []nn.Kernel {
	return ks
}

func (s *stall) Forward(ctx *nn.Ctx, in, out *tensor.Tensor) {
	time.Sleep(time.Duration(in.Dim(0)) * s.perInst)
	copy(out.Data(), in.Data())
}

// obsNet bounds a replica at a known rate via the stall stage, so
// "kill one of two assignees" translates into real admission sheds on
// the survivor instead of being absorbed invisibly. With the batch cap
// pinned at 8 instances (MinBatchInstances below) every full forward
// pass costs the same wall-clock slice, and the adaptive controller
// cannot shrink the cap to batches whose per-batch sleep overshoot
// eats capacity on a loaded host; that keeps the capacity — and with
// it the whole overload arithmetic — stable across hosts.
func obsNet(seed uint64) *nn.Net {
	rng := tensor.NewRNG(seed)
	n := nn.NewNet("obs", nn.KindDNN, 64)
	n.Add(nn.NewFC("fc1", rng, 64, 32)).
		Add(&stall{name: "stall", perInst: obsPerInst}).
		Add(nn.NewSoftmax("prob"))
	return n
}

func obsAppCfg() service.AppConfig {
	return service.AppConfig{
		BatchInstances:    obsBatch,
		MinBatchInstances: obsBatch, // pin the cap: per-batch cost is fixed wall-clock
		Workers:           1,
		MaxPending:        512,
		SLO:               30 * time.Millisecond,
	}
}

// obsPerInst and obsBatch set the stall net's operating point: under
// load every forward pass carries obsBatch instances (the cap is
// pinned) and sleeps obsBatch×obsPerInst.
const (
	obsPerInst = 400 * time.Microsecond
	obsBatch   = 8
)

// probeCapacity calibrates one replica's serving capacity. With the
// batch pinned, capacity is obsBatch over the wall-clock cost of one
// forward pass — but time.Sleep overshoots its argument by a
// host-dependent slack (timer granularity), so the cost is measured
// rather than computed. A closed-loop probe would be worse than it
// looks: on a small host its rejected-query retry spin competes for
// CPU with the very server it is measuring.
func probeCapacity() float64 {
	samples := make([]time.Duration, 5)
	for i := range samples {
		t0 := time.Now()
		time.Sleep(obsBatch * obsPerInst)
		samples[i] = time.Since(t0)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return float64(obsBatch) / samples[len(samples)/2].Seconds()
}

// ObsFleetRun drives the observed kill-mid-load story: a baseline
// healthy window without the observability plane (for the overhead
// A/B), the same window observed, then a replica kill and a recovery
// window with the collector, alert engine, and journal watching.
// window sizes the healthy drive; the kill and recovery windows are
// 2× it so the multi-window burn alert has room to fire and resolve.
func ObsFleetRun(replicas int, window time.Duration) (ObsFleetResult, error) {
	res := ObsFleetResult{Replicas: replicas}
	silent := func(string, ...any) {}
	const app = "imc"

	cap1 := probeCapacity()
	// 1.45× one replica's capacity: the healthy pair of assignees sits
	// at ~72% utilization each, while the post-kill survivor is pushed
	// to 145% and must shed roughly a third of the demand — far above
	// the fast window's 20% burn threshold, far below anything the
	// healthy fleet produces.
	res.Rate = 1.45 * cap1

	j := events.New(1024)
	rt := router.New(router.Config{
		Policy: router.LeastOutstanding,
		Health: router.HealthConfig{
			FailureThreshold: 2,
			ProbeInterval:    20 * time.Millisecond,
			MaxProbeInterval: 100 * time.Millisecond,
		},
	})
	defer rt.Close()
	rt.SetJournal(j)

	ctl := controlplane.NewController(controlplane.Config{
		Router: rt,
		Mapper: controlplane.NewMapper(controlplane.MapperConfig{
			Policy:       controlplane.LeastLoaded{},
			DefaultCount: 2,
		}),
		Apps: []string{app},
		// Detection is deliberately deliberate (~300ms): the alert must
		// fire while the fleet is still degraded, not after the control
		// plane has already healed it.
		DeadAfter:  12,
		DrainDelay: 150 * time.Millisecond,
		Logf:       silent,
		Journal:    j,
	})

	servers := make(map[string]*service.Server, replicas)
	targets := make([]timeseries.Target, 0, replicas)
	for i := 0; i < replicas; i++ {
		id := fmt.Sprintf("r%d", i)
		srv := service.NewServer()
		srv.SetLogger(silent)
		defer srv.Close()
		srv.SetJournal(j, id)
		servers[id] = srv
		if err := rt.AddBackend(id, srv); err != nil {
			return res, err
		}
		ctl.Join(controlplane.NewServerMember(id, srv,
			map[string]*nn.Net{app: obsNet(1)}, obsAppCfg()))
		targets = append(targets, timeseries.Target{Replica: id, Server: srv})
	}
	if r := ctl.Reconcile(); r.Moves == 0 {
		return res, fmt.Errorf("initial reconcile placed nothing")
	}
	ctl.Run(25 * time.Millisecond)
	defer ctl.Stop()

	payload := func(*tensor.RNG) []float32 { return make([]float32, 64) }
	mix := workload.Mix{{Name: app, Weight: 1, Payload: payload}}
	drive := func(d time.Duration) workload.MixedResult {
		// The deep inflight cap matters: overload must be allowed to
		// build a real server-side queue so the admission estimate
		// crosses its budget and sheds — a shallow cap would quietly
		// convert the overload into queueing delay instead.
		return workload.DriveMixed(rt, mix, res.Rate, workload.FlatCurve(), 512, workload.DriveOptions{
			Duration: d,
			Deadline: 100 * time.Millisecond,
			SLO:      30 * time.Millisecond,
		})
	}

	// Baseline: the healthy window with no collector or alert engine
	// running (the journal is attached but idle — nothing transitions).
	base := drive(window)
	res.BaselineQPS = float64(base.Total.Queries) / window.Seconds()

	// Attach the observability plane and repeat the same window.
	coll := timeseries.NewCollector(timeseries.Config{
		Interval: 10 * time.Millisecond,
		Slots:    1024,
		Targets:  targets,
		SLO:      map[string]time.Duration{app: 30 * time.Millisecond},
	})
	coll.Run()
	defer coll.Stop()
	engine := alerts.New(coll, j, alerts.Rule{
		App:        app,
		Objective:  0.95,
		FastWindow: 100 * time.Millisecond,
		FastBurn:   4,
		SlowWindow: 200 * time.Millisecond,
		SlowBurn:   2,
		Pending:    20 * time.Millisecond,
		MinDemand:  10,
		KeepFiring: 150 * time.Millisecond,
	})
	engine.Run(10 * time.Millisecond)
	defer engine.Stop()
	observedStart := time.Now()

	res.Before = drive(window)
	res.ObservedQPS = float64(res.Before.Total.Queries) / window.Seconds()

	// Kill an assignee mid-load and drive through the failure.
	victim := ""
	if pls := rt.Placements()[app]; len(pls) > 0 {
		victim = pls[0].Replica
	}
	if victim == "" {
		return res, fmt.Errorf("no placement installed for %s", app)
	}
	res.KillAt = time.Now()
	servers[victim].Close()
	res.During = drive(2 * window)

	// Recovery window: the control plane has re-placed the app; the
	// burn subsides and the alert resolves.
	res.After = drive(2 * window)

	engine.Stop()
	coll.Stop()
	res.ObservedWall = time.Since(observedStart)
	res.CollectorSelf = coll.SelfTime()
	if res.ObservedWall > 0 {
		res.OverheadFrac = float64(res.CollectorSelf) / float64(res.ObservedWall)
	}

	// Fleet tail: merged-histogram p99 over the whole observed run vs
	// the mean of per-replica p99s.
	res.FleetP99 = coll.FleetQuantile(app, 0.99, res.ObservedWall)
	var sum time.Duration
	n := 0
	for id := range servers {
		if rs := coll.ReplicaApp(id, app); rs != nil {
			if snap, ok := servers[id].RequestHistogram(app); ok && snap.Count > 0 {
				sum += snap.Quantile(0.99)
				n++
			}
		}
	}
	if n > 0 {
		res.AvgReplicaP99 = sum / time.Duration(n)
	}

	// Lift the alert + placement timeline out of the journal.
	res.EventsByKind = map[events.Kind]int{}
	for _, ev := range j.Recent(0) {
		res.EventsByKind[ev.Kind]++
		switch ev.Kind {
		case events.KindAlert:
			switch {
			case strings.Contains(ev.Msg, "pending") && res.PendingAt.IsZero():
				res.PendingAt = ev.Time
			case strings.Contains(ev.Msg, "FIRING") && res.FiringAt.IsZero():
				res.FiringAt = ev.Time
			case strings.Contains(ev.Msg, "RESOLVED"):
				// Keep the last resolution: with a resolve hold a
				// flap is rare, but recovery is the one that counts.
				res.ResolvedAt = ev.Time
			}
		case events.KindPlacement:
			if ev.Time.After(res.KillAt) && res.ReplacedAt.IsZero() {
				res.ReplacedAt = ev.Time
			}
		}
	}
	return res, nil
}

// RenderObsFleet prints the observed kill run: per-window serving
// numbers, the journaled alert timeline, the merged-vs-averaged fleet
// tail, and the instrumentation overhead.
func RenderObsFleet() string {
	out := "Extension: fleet observability — journaled kill, burn-rate alert lifecycle, merged fleet p99\n"
	res, err := ObsFleetRun(3, 400*time.Millisecond)
	if err != nil {
		return out + err.Error() + "\n"
	}
	t := &table{header: []string{"window", "issued", "ok", "shed", "expired", "errors", "attainment", "p99"}}
	row := func(name string, r workload.MixedResult) {
		t.add(name,
			fmt.Sprint(r.Total.Issued()), fmt.Sprint(r.Total.Queries),
			fmt.Sprint(r.Total.Shed), fmt.Sprint(r.Total.Expired), fmt.Sprint(r.Total.Errors),
			fmt.Sprintf("%.3f", r.Total.SLOAttainment()),
			r.Total.Latency.P99.Round(time.Microsecond).String())
	}
	row("healthy", res.Before)
	row("kill", res.During)
	row("recovered", res.After)
	out += t.String()

	since := func(ts time.Time) string {
		if ts.IsZero() {
			return "never"
		}
		return "+" + ts.Sub(res.KillAt).Round(time.Millisecond).String()
	}
	out += fmt.Sprintf("alert timeline (offsets from the kill): pending %s, FIRING %s, re-placed %s, RESOLVED %s\n",
		since(res.PendingAt), since(res.FiringAt), since(res.ReplacedAt), since(res.ResolvedAt))
	out += fmt.Sprintf("fleet p99 (merged histograms) %v vs avg of per-replica p99s %v\n",
		res.FleetP99.Round(time.Microsecond), res.AvgReplicaP99.Round(time.Microsecond))

	kinds := make([]string, 0, len(res.EventsByKind))
	for k := range res.EventsByKind {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%s=%d", k, res.EventsByKind[events.Kind(k)])
	}
	out += "journal: " + strings.Join(parts, " ") + "\n"
	out += fmt.Sprintf("(rate %.0f q/s over %d replicas; collector self-time %v of %v observed = %.3f%% overhead;\n"+
		" healthy-window QPS observed %.0f vs unobserved baseline %.0f)\n",
		res.Rate, res.Replicas,
		res.CollectorSelf.Round(time.Microsecond), res.ObservedWall.Round(time.Millisecond), 100*res.OverheadFrac,
		res.ObservedQPS, res.BaselineQPS)
	return out
}
