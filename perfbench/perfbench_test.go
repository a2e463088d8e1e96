package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"djinn/internal/models"
	"djinn/internal/service"
)

// corruptFirst changes one float of every answer: the winning score of
// the first instance, whose row holds width floats.
type corruptFirst struct {
	next  service.Backend
	width int
}

func (c corruptFirst) Infer(app string, in []float32) ([]float32, error) {
	out, err := c.next.Infer(app, in)
	if err != nil {
		return nil, err
	}
	row := out[:c.width]
	row[slices.Index(row, slices.Max(row))] = 0
	return out, nil
}

func TestCorruptedFloatIsCaught(t *testing.T) {
	for _, tc := range []struct {
		workload string
		width    int
	}{
		{"nlp-wire", models.POSTags},
		{"dig-wire", 10},
	} {
		s, _ := specFor(tc.workload)
		s.apps = s.apps[:1]
		s.requests = 4
		in := genInputs(s, 7)
		if err := in.references([]int{0}); err != nil {
			t.Fatal(err)
		}
		pb := newPlanBackend(referenceNets(s.apps))
		k := in.req(0)
		got, err := in.answer(pb, k)
		if o := in.check(k, got, err); o != ok {
			t.Fatalf("%s: clean backend answer classified %s", tc.workload, o)
		}
		got, err = in.answer(corruptFirst{pb, tc.width}, k)
		if o := in.check(k, got, err); o != wrong {
			t.Errorf("%s: answer with one corrupted float classified %s, want wrong", tc.workload, o)
		}
	}
}

func TestTracedLayersAddUpToEndToEnd(t *testing.T) {
	for _, name := range []string{"nlp-wire", "nlp-http-cache"} {
		t.Run(name, func(t *testing.T) {
			s, _ := specFor(name)
			s.requests = 512
			in := genInputs(s, 3)
			all := make([]int, s.requests)
			for i := range all {
				all[i] = i
			}
			if err := in.references(all); err != nil {
				t.Fatal(err)
			}
			res, dec, err := runTraced(in, 3, 3*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || dec.queries == 0 {
				t.Fatalf("traced run: correct=%v failed=%d answers=%d", res.Correct, res.Failed, dec.queries)
			}
			sum := res.Metrics["unaccounted_ms"].Value
			for _, l := range dec.layers {
				if l.self < 0 {
					t.Errorf("layer %s self time %v is negative", l.name, l.self)
				}
				sum += dec.mean(l.self)
			}
			if e2e := dec.mean(dec.e2e); math.Abs(sum-e2e) > 1e-9*e2e {
				t.Errorf("layer self times + unaccounted = %.6f ms, traced e2e mean = %.6f ms", sum, e2e)
			}
			if u := math.Abs(res.Metrics["unaccounted_ms"].Value); u > 0.1*dec.mean(dec.e2e) {
				t.Errorf("unaccounted %.3f ms is over a tenth of the e2e mean %.3f ms", u, dec.mean(dec.e2e))
			}
			for _, m := range perLayerMetrics() {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("traced run does not report %s", m.name)
				}
			}
		})
	}
}

// TestBenchmarkJSONDeclaresReportedMetrics keeps BENCHMARK.json and
// the metrics the harness prints in step.
func TestBenchmarkJSONDeclaresReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, declared []struct{ Name, Unit string }, reported []metricSpec) {
		if len(declared) != len(reported) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the harness reports %d", what, len(declared), len(reported))
			return
		}
		for i, m := range reported {
			if declared[i].Name != m.name || declared[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the harness reports %s (%s)",
					what, i, declared[i].Name, declared[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayerMetrics())
	for _, w := range b.Workloads {
		if _, ok := specFor(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is not defined", w.Name)
		}
	}
}
