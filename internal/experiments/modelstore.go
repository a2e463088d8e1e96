package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"djinn/internal/modelstore"
	"djinn/internal/nn"
	"djinn/internal/service"
	"djinn/internal/tensor"
)

// The modelstore experiment measures the multi-tenant claim behind the
// weight store: a fleet of registered models far larger than the
// residency budget, served from one node whose resident set stays
// bounded while queries fault models in and the LRU evicts cold ones.
// The paper's DjiNN instance pins its 7 models at boot (§3); this is
// the "hundreds of models, few hot" regime a shared WSC service tier
// actually faces.

// ModelStoreResult summarises one bounded-residency serving run.
type ModelStoreResult struct {
	Models      int   // registered model versions
	DiskBytes   int64 // total weight bytes on disk
	BudgetBytes int64 // configured residency budget

	ColdP50, ColdP99     time.Duration // first-touch (fault-in) query latency
	SteadyP50, SteadyP99 time.Duration // steady-state query latency
	SteadyQueries        int           // steady-state queries answered
	Failed               int           // queries lost (must be 0)

	Stats modelstore.Stats // registry counters at the end of the run
}

// storeNet is one tenant model: a small FC stack with per-model
// weights, so every model answers distinctly and a wrong-model bug
// would show up as a wrong answer.
func storeNet(seed uint64) *nn.Net {
	rng := tensor.NewRNG(seed)
	n := nn.NewNet("tenant", nn.KindDNN, 16)
	n.Add(nn.NewFC("fc1", rng, 16, 32)).
		Add(nn.NewReLU("relu")).
		Add(nn.NewFC("fc2", rng, 32, 8)).
		Add(nn.NewSoftmax("prob"))
	return n
}

// ModelStoreRun exports nModels tenant models to disk, registers them
// with a registry whose budget is budgetFrac of their total bytes, and
// serves them from one server: a cold sweep touching every model once
// (each query faults its model in), then a steady-state closed loop of
// workers drawing models uniformly for dur. Every query is answered
// from mapped weight pages; evictions run concurrently with serving.
func ModelStoreRun(nModels int, budgetFrac float64, workers int, dur time.Duration) (ModelStoreResult, error) {
	var res ModelStoreResult
	dir, err := os.MkdirTemp("", "djinn-modelstore-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	// Export the tenant fleet.
	names := make([]string, nModels)
	for i := range names {
		names[i] = fmt.Sprintf("m%03d", i)
		path := filepath.Join(dir, names[i]+".djw")
		if err := modelstore.WriteFile(path, names[i], 1, storeNet(uint64(i+1))); err != nil {
			return res, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return res, err
		}
		res.DiskBytes += fi.Size()
	}
	res.Models = nModels
	res.BudgetBytes = int64(budgetFrac * float64(res.DiskBytes))

	reg := modelstore.NewRegistry(modelstore.Config{BudgetBytes: res.BudgetBytes})
	srv := service.NewServer()
	srv.SetLogger(func(string, ...any) {})
	srv.AttachModelStore(reg, service.AppConfig{
		BatchInstances: 4,
		Workers:        1,
	})
	for _, name := range names {
		if _, err := reg.Register(filepath.Join(dir, name+".djw")); err != nil {
			return res, err
		}
	}
	defer func() {
		srv.Close()
		reg.Close()
	}()

	in := make([]float32, 16)
	tensor.NewRNG(7).FillUniform(in, -1, 1)

	// Cold sweep: every model's first query pays the fault-in (open,
	// validate, mmap, compile, evict a victim when over budget).
	cold := make([]time.Duration, 0, nModels)
	for _, name := range names {
		t0 := time.Now()
		if _, err := srv.Infer(name, in); err != nil {
			return res, fmt.Errorf("cold %s: %w", name, err)
		}
		cold = append(cold, time.Since(t0))
	}
	res.ColdP50, res.ColdP99 = pctDur(cold, 0.50), pctDur(cold, 0.99)

	// Steady state: closed-loop workers draw models uniformly, so the
	// working set exceeds the budget and the LRU churns throughout.
	var mu sync.Mutex
	var steady []time.Duration
	failed := 0
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 0x6a09e667f3bcc909
			var lats []time.Duration
			fails := 0
			for time.Now().Before(deadline) {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				name := names[rng%uint64(nModels)]
				t0 := time.Now()
				if _, err := srv.Infer(name, in); err != nil {
					fails++
					continue
				}
				lats = append(lats, time.Since(t0))
			}
			mu.Lock()
			steady = append(steady, lats...)
			failed += fails
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	res.SteadyQueries, res.Failed = len(steady), failed
	res.SteadyP50, res.SteadyP99 = pctDur(steady, 0.50), pctDur(steady, 0.99)
	res.Stats = reg.Stats()
	return res, nil
}

// pctDur returns the q-quantile of a latency sample (nearest rank).
func pctDur(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// RenderModelStore prints the bounded-residency serving run: 100
// registered tenant models, a budget a quarter of their total bytes,
// cold fault-in latency vs steady-state latency, and the eviction
// churn the budget forced — with zero failed queries.
func RenderModelStore() string {
	out := "Extension: memory-mapped model store — 100 tenants under a bounded residency budget\n"
	res, err := ModelStoreRun(100, 0.25, 4, 2*time.Second)
	if err != nil {
		return out + err.Error() + "\n"
	}
	t := &table{header: []string{"models", "disk", "budget", "peak resident", "evictions", "cold p50", "cold p99", "steady p50", "steady p99"}}
	t.add(fmt.Sprint(res.Models), si(float64(res.DiskBytes)), si(float64(res.BudgetBytes)),
		si(float64(res.Stats.PeakBytes)), fmt.Sprint(res.Stats.Evictions),
		res.ColdP50.Round(time.Microsecond).String(), res.ColdP99.Round(time.Microsecond).String(),
		res.SteadyP50.Round(time.Microsecond).String(), res.SteadyP99.Round(time.Microsecond).String())
	out += t.String()
	out += fmt.Sprintf("(%d steady-state queries, %d failed; %d fault-ins after the cold sweep —\n"+
		" every fault re-opens, re-validates, and re-maps the victim of an earlier eviction;\n"+
		" resident bytes never exceeded the budget: peak %s <= %s)\n",
		res.SteadyQueries, res.Failed, res.Stats.Faults-int64(res.Models),
		si(float64(res.Stats.PeakBytes)), si(float64(res.Stats.BudgetBytes)))
	return out
}
