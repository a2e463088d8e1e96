package experiments

import (
	"fmt"
	"time"

	"djinn/internal/cluster"
	"djinn/internal/gpusim"
	"djinn/internal/models"
	"djinn/internal/nn"
	"djinn/internal/router"
	"djinn/internal/service"
	"djinn/internal/tensor"
	"djinn/internal/workload"
	"djinn/internal/wsc"
)

// RouterSweepRow is one cell of the measured router sweep: one routing
// policy driving one replica count.
type RouterSweepRow struct {
	Policy   router.Policy
	Replicas int
	Res      workload.DriveResult
	Backends []router.BackendSnapshot
}

// benchPace is the modelled accelerator-side service time per query
// instance in the router sweep. The pure-Go forward pass stands in for
// the GPU everywhere else in this repo, but on a small host every
// replica shares the same cores, so a compute-bound sweep would measure
// the host's core count instead of the dispatch tier. Pacing the
// forward pass at a fixed per-instance service time (a sleep, like the
// device time gpusim charges per batch instance) makes each replica a
// genuine unit of serving capacity regardless of host parallelism.
const benchPace = time.Millisecond

// pacedLayer charges benchPace per batch instance, then passes its
// input through unchanged. It slots into an nn.Net between real layers
// so the service still exercises its full batch/forward/respond path.
type pacedLayer struct{}

func (pacedLayer) Name() string                                            { return "paced" }
func (pacedLayer) Kind() string                                            { return "paced" }
func (pacedLayer) OutShape(in []int) ([]int, error)                        { return in, nil }
func (pacedLayer) Params() []*nn.Param                                     { return nil }
func (pacedLayer) Kernels(in []int, batch int, ks []nn.Kernel) []nn.Kernel { return ks }
func (pacedLayer) Forward(ctx *nn.Ctx, in, out *tensor.Tensor) {
	time.Sleep(time.Duration(in.Shape()[0]) * benchPace)
	copy(out.Data(), in.Data())
}

// benchNet is the router sweep's model: a small FC stack with a paced
// stage, identical weights on every replica.
func benchNet(seed uint64) *nn.Net {
	rng := tensor.NewRNG(seed)
	n := nn.NewNet("router-bench", nn.KindDNN, 8)
	n.Add(nn.NewFC("fc1", rng, 8, 16)).
		Add(nn.NewReLU("relu")).
		Add(pacedLayer{}).
		Add(nn.NewFC("fc2", rng, 16, 4)).
		Add(nn.NewSoftmax("prob"))
	return n
}

// RouterSweep drives the real in-process service through the
// multi-backend router: for each replica count × policy it boots a
// fleet of DjiNN servers running the paced bench model, fans a
// closed-loop workload across them, and reports the drive result plus
// the per-backend routing counters. With one single-worker replica the
// fleet serves ~1/benchPace queries per second; each added replica adds
// that much capacity, so throughput scaling with replica count is the
// sweep's expected signature (until the closed-loop client pool stops
// saturating the fleet). This is the measured half of the dispatch-tier
// study; the cluster simulation mirrors the same policies for the
// modelled half.
func RouterSweep(replicaCounts []int, policies []router.Policy, workers int, per time.Duration) []RouterSweepRow {
	var rows []RouterSweepRow
	for _, n := range replicaCounts {
		for _, pol := range policies {
			rt := router.New(router.Config{Policy: pol})
			servers := make([]*service.Server, 0, n)
			for i := 0; i < n; i++ {
				srv := service.NewServer()
				srv.SetLogger(func(string, ...any) {})
				if err := srv.Register("bench", benchNet(1), service.AppConfig{
					BatchInstances: 2,
					Workers:        1,
				}); err != nil {
					panic(err)
				}
				servers = append(servers, srv)
				if err := rt.AddBackend(fmt.Sprintf("replica-%d", i), srv); err != nil {
					panic(err)
				}
			}
			res := workload.DriveClosedLoopPayload(rt, "bench", func(rng *tensor.RNG) []float32 {
				in := make([]float32, 8)
				rng.FillNorm(in, 0, 0.5)
				return in
			}, workers, per, 0)
			rows = append(rows, RouterSweepRow{Policy: pol, Replicas: n, Res: res, Backends: rt.Stats()})
			rt.Close()
			for _, srv := range servers {
				srv.Close()
			}
		}
	}
	return rows
}

// spread summarises how evenly a policy spread attempts across the
// fleet: min/max per-backend attempts.
func spread(backends []router.BackendSnapshot) string {
	if len(backends) == 0 {
		return "-"
	}
	lo, hi := backends[0].Stats.Sent, backends[0].Stats.Sent
	for _, b := range backends[1:] {
		if b.Stats.Sent < lo {
			lo = b.Stats.Sent
		}
		if b.Stats.Sent > hi {
			hi = b.Stats.Sent
		}
	}
	return fmt.Sprintf("%d/%d", lo, hi)
}

// RenderRouter prints the dispatch-tier study: the measured sweep
// (replica count × policy on the live service) and the cluster
// simulation running the identical policies over its GPU tier.
func (p Platform) RenderRouter() string {
	out := "Extension: multi-backend router — replica count x policy (paced bench model, closed loop)\n"
	rows := RouterSweep([]int{1, 2, 4}, router.Policies, 8, 250*time.Millisecond)
	t := &table{header: []string{"policy", "replicas", "QPS", "ok", "shed", "p50", "p95", "sent min/max"}}
	for _, r := range rows {
		t.add(r.Policy.String(), fmt.Sprint(r.Replicas), f1(r.Res.QPS),
			fmt.Sprint(r.Res.Queries), fmt.Sprint(r.Res.Shed),
			r.Res.Latency.P50.Round(10*time.Microsecond).String(),
			r.Res.Latency.P95.Round(10*time.Microsecond).String(),
			spread(r.Backends))
	}
	out += t.String()
	out += "(throughput scales with replica count until the drive's 8 closed-loop\n" +
		" clients stop saturating the fleet; sent min/max shows each policy's spread)\n\n"

	out += "Simulated mirror: the same policies dispatching the cluster sim's GPU tier\n"
	st := &table{header: []string{"policy", "QPS", "mean ms", "assembly wait ms", "p95 ms"}}
	for _, pol := range router.Policies {
		cfg := p.routerSimConfig()
		cfg.Policy = pol
		res := cluster.Simulate(cfg, 2.0)
		st.add(pol.String(), f1(res.QPS), f3(res.MeanLat*1e3), f3(res.MeanWait*1e3), f3(res.P95Lat*1e3))
	}
	out += st.String()
	out += "(measured and simulated dispatch share one policy implementation contract;\n" +
		" on a homogeneous tier the load-aware policies match round-robin, and they\n" +
		" pull ahead once replicas differ — kill one in the live fleet and the router\n" +
		" marks it down and retries within each query's deadline budget)\n"
	return out
}

// routerSimConfig is the fixed cluster configuration the policy mirror
// runs: the DIG workload shape on a two-server Integrated GPU tier,
// loaded to half capacity, provisioned exactly like the Cluster
// experiment.
func (p Platform) routerSimConfig() cluster.Config {
	spec := workload.Get(models.DIG)
	link := wsc.Table6()[0]
	perGPU := p.ServerQPS(models.DIG, 1, OptimalMPSProcs, true, false).QPS
	const gpuServers, gpusPerSrv = 2, 4
	capacity := float64(gpuServers*gpusPerSrv) * perGPU
	pre := p.CPU.ScalarTime(spec.PreOps)
	post := p.CPU.ScalarTime(spec.PostOps)
	cpuServers := int(capacity*0.5*(pre+post)/(wsc.CoresPerBeefyServer*0.6)) + 1
	return cluster.Config{
		Design:       cluster.Integrated,
		CPUServers:   cpuServers,
		CPUCores:     int(wsc.CoresPerBeefyServer),
		PreSeconds:   pre,
		PostSeconds:  post,
		GPUServers:   gpuServers,
		GPUsPerSrv:   gpusPerSrv,
		ProcsPerGPU:  OptimalMPSProcs,
		Device:       p.GPU,
		BatchQueries: spec.BatchSize,
		BatchWindow:  2e-3,
		BatchKernels: func(n int) []gpusim.KernelWork { return p.GPU.Lower(spec.Kernels(n)) },
		WireBytes:    spec.WireBytes(),
		NetBW:        link.NetBW,
		LinkBW:       link.LinkBW,
		ArrivalRate:  capacity * 0.5,
		Seed:         7,
	}
}
