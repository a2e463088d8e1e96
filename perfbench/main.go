// Command perfbench is the DjiNN service benchmark. It builds the
// serving stack in its own process the way `djinn-service -http` does
// with its default flags, listens on loopback, and drives it over real
// sockets with seeded Tonic workloads: an open-loop Poisson phase for
// latency and a closed-loop phase for capacity. Every answer is checked
// against a reference computed on in-process plans. With -trace 1 it
// instead reports per-layer metrics from a traced run.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload nlp-wire --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md describes the
// workloads and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"djinn/internal/tensor"
)

// setupRuns is how many fresh processes time set-up; setup_s is their
// median.
const setupRuns = 5

// warmupQueries per app run before any phase is measured, so
// connections, plan pools and page faults are settled.
const warmupQueries = 4

func main() {
	name := flag.String("workload", "", "workload name: nlp-wire, dig-wire or nlp-http-cache")
	seed := flag.Uint64("seed", 1, "workload seed: the inputs, request mix and arrival times derive from it")
	seconds := flag.Float64("seconds", 30, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 runs traced and reports per-layer metrics")
	setupChild := flag.Bool("setup-child", false, "time one stack set-up, print it and exit (used by the benchmark itself)")
	flag.Parse()

	s, found := specFor(*name)
	if !found || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload nlp-wire|dig-wire|nlp-http-cache --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// A wedged run must still end: a healthy one takes the measured
	// seconds plus about 15 s of set-up and reference computation.
	watchdog := time.AfterFunc(time.Duration(1.5*(*seconds)*float64(time.Second))+60*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time limit")
		os.Exit(3)
	})
	defer watchdog.Stop()

	var err error
	switch {
	case *setupChild:
		err = timeSetup(s, *seed)
	default:
		err = run(s, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(s spec, seed uint64, d time.Duration, traced bool) error {
	in := genInputs(s, seed)
	fmt.Printf("perfbench provenance %s\n", provenance(s, seed, d, traced))
	fmt.Printf("workload %s: apps=%v rate=%g q/s slo=%v tail=p%g pool=%d zipf=%g requests<=%d http=%v senders=%d\n",
		s.name, s.apps, s.rate, s.slo, 100*s.tail, s.pool, s.zipf, s.requests, s.http, senders)

	var setups []float64
	if !traced {
		for i := 0; i < setupRuns; i++ {
			v, err := setupChild(s, seed)
			if err != nil {
				return err
			}
			setups = append(setups, v)
		}
		fmt.Printf("setup_s runs: %v\n", setups)
	}

	all := make([]int, s.requests)
	for i := range all {
		all[i] = i
	}
	t0 := time.Now()
	if err := in.references(all); err != nil {
		return fmt.Errorf("computing references: %w", err)
	}
	fmt.Printf("references: %d distinct queries in %.2fs\n", len(in.want), time.Since(t0).Seconds())
	runtime.GC()

	if traced {
		res, _, err := runTraced(in, seed, d)
		if err != nil {
			return err
		}
		return emit(res)
	}

	st, err := buildStack(s.apps, taps{})
	if err != nil {
		return err
	}
	defer st.close()
	drv, err := newDriver(in, st, false)
	if err != nil {
		return err
	}
	defer drv.close()
	peak := startHeapPeak()

	rng := tensor.NewRNG(seed ^ 0x5eed)
	warm := closedLoop("warmup", d, warmupQueries*len(s.apps), 0, s.slo, drv.issue)
	base := int(warm.sent())
	open := openLoop("open", schedule(rng, s.rate, frac(d, 0.7)), base, s.slo, drv.issue)
	base += int(open.sent())
	cpu0 := cpuTime()
	closed := closedLoop("closed", frac(d, 0.3), max(s.requests-base, 1), base, s.slo, drv.issue)
	cpuPerQuery := ratio(ms(cpuTime()-cpu0), float64(closed.counts[ok]))
	base += int(closed.sent())
	heapMB := peak.end()

	phases := []*phase{warm, open, closed}
	for _, p := range phases {
		fmt.Println(p)
	}
	if base >= s.requests {
		fmt.Printf("closed loop stopped at the %d-request cap\n", s.requests)
	}
	fmt.Printf("repeat_share %.4f over %d requests\n", in.repeatShare(base), base)
	slices.Sort(setups)
	return emit(summarize(phases, endToEnd, map[string]float64{
		"setup_s":          setups[len(setups)/2],
		"loaded_p50_ms":    latencyMS(closed, 0.5),
		"goodput_qps":      float64(closed.good) / closed.elapsed.Seconds(),
		"cpu_ms_per_query": cpuPerQuery,
		"peak_heap_mb":     heapMB,
	}))
}

// cpuTime is the CPU time this process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, in the order
// BENCHMARK.json declares them.
var endToEnd = []metricSpec{
	{"setup_s", "s"}, {"loaded_p50_ms", "ms"}, {"goodput_qps", "1/s"}, {"cpu_ms_per_query", "ms"}, {"peak_heap_mb", "MB"},
}

// summarize counts every phase's requests into the result, with the
// listed metrics taken from values.
func summarize(phases []*phase, specs []metricSpec, values map[string]float64) result {
	r := result{Correct: true, Metrics: map[string]metric{}}
	for _, p := range phases {
		r.Attempted += p.sent()
		r.Failed += p.failures()
		if p.counts[wrong] > 0 {
			r.Correct = false
		}
	}
	for _, m := range specs {
		r.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	return r
}

func emit(r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// latencyMS is a phase quantile in ms; a quantile no correct answer
// reached reads as the phase's whole duration.
func latencyMS(p *phase, q float64) float64 {
	v := p.quantile(q)
	if v > p.elapsed {
		v = p.elapsed
	}
	return ms(v)
}

func frac(d time.Duration, f float64) time.Duration {
	return time.Duration(f * float64(d))
}

// repeatShare is the share of requests 0..n-1 whose app and input an
// earlier request already sent.
func (in *inputs) repeatShare(n int) float64 {
	if n == 0 {
		return 0
	}
	seen := map[key]bool{}
	repeats := 0
	for i := 0; i < n; i++ {
		k := in.req(i)
		if seen[k] {
			repeats++
		}
		seen[k] = true
	}
	return float64(repeats) / float64(n)
}

// setupChild times one set-up in a fresh process, so the model build
// is not served from this process's cache.
func setupChild(s spec, seed uint64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--setup-child", "--workload", s.name, "--seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up run: %w", err)
	}
	lines := strings.Fields(strings.TrimSpace(string(out)))
	if len(lines) == 0 {
		return 0, errors.New("set-up run printed nothing")
	}
	return strconv.ParseFloat(lines[len(lines)-1], 64)
}

// timeSetup is the set-up child: it times building the stack up to the
// first correct answer from every app the workload uses, then checks
// those answers against references computed afterwards.
func timeSetup(s spec, seed uint64) error {
	in := genInputs(s, seed)
	first := in.firstRequests()
	start := time.Now()
	st, err := buildStack(s.apps, taps{})
	if err != nil {
		return err
	}
	defer st.close()
	drv, err := newDriver(in, st, false)
	if err != nil {
		return err
	}
	defer drv.close()
	// The references are not known yet, so the answers are kept and
	// checked below.
	got := make([][]string, len(first))
	for k, i := range first {
		got[k], err = drv.send(0, i)
		if err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	if err := in.references(first); err != nil {
		return err
	}
	for k, i := range first {
		if o := in.check(in.req(i), got[k], nil); o != ok {
			return fmt.Errorf("first %s answer: %s", s.apps[in.req(i).app], o)
		}
	}
	fmt.Println(elapsed.Seconds())
	return nil
}

// provenance describes the host, toolchain, code and workload a
// result was measured with.
func provenance(s spec, seed uint64, d time.Duration, traced bool) string {
	p := map[string]any{
		"workload":   s.name,
		"seed":       seed,
		"seconds":    d.Seconds(),
		"trace":      traced,
		"cores":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goamd64":    "v1",
		"cpu_flags":  cpuFlags(),
		"commit":     "tree:" + treeHash(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "GOAMD64":
				p["goamd64"] = kv.Value
			case "vcs.revision":
				p["commit"] = kv.Value
			}
		}
	}
	b, _ := json.Marshal(p) // a map of strings and numbers always marshals
	return string(b)
}

// cpuFlags lists which of the vector extensions the kernels could use
// the host reports.
func cpuFlags() []string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return nil
	}
	var flags []string
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "flags" {
			have := strings.Fields(v)
			for _, f := range []string{"avx2", "fma", "avx512f"} {
				if slices.Contains(have, f) {
					flags = append(flags, f)
				}
			}
			break
		}
	}
	return flags
}

// treeHash fingerprints the Go sources under the working directory,
// identifying the code measured when the checkout carries no VCS data.
func treeHash() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && path != "." && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			if data, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
				h.Write(data)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
