// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (the rows/series themselves are printed by
// cmd/djinn-bench; these benchmarks time regenerating each experiment
// and report its headline metric), plus micro-benchmarks of the real
// service path.
package djinn

import (
	"testing"
	"time"

	"djinn/internal/experiments"
	"djinn/internal/models"
	"djinn/internal/tensor"
	"djinn/internal/workload"
)

func benchPlatform() Platform { return NewPlatform() }

// BenchmarkTable1Networks rebuilds the seven Table 1 networks.
func BenchmarkTable1Networks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, app := range []App{DIG, POS, CHK, NER} { // the small models; big ones dominate via allocation
			models.Build(app, uint64(i)+1)
		}
	}
}

// BenchmarkTable3Specs regenerates the Table 3 service specifications.
func BenchmarkTable3Specs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := len(workload.All()); got != 7 {
			b.Fatalf("%d specs", got)
		}
	}
}

// BenchmarkFig4CycleBreakdown regenerates Figure 4.
func BenchmarkFig4CycleBreakdown(b *testing.B) {
	p := benchPlatform()
	var frac float64
	for i := 0; i < b.N; i++ {
		rows := p.Fig4()
		frac = rows[3].DNNFrac // ASR
	}
	b.ReportMetric(frac*100, "ASR-DNN-%")
}

// BenchmarkFig5BaselineSpeedup regenerates Figure 5.
func BenchmarkFig5BaselineSpeedup(b *testing.B) {
	p := benchPlatform()
	var asr float64
	for i := 0; i < b.N; i++ {
		for _, r := range p.Fig5() {
			if r.App == ASR {
				asr = r.Speedup
			}
		}
	}
	b.ReportMetric(asr, "ASR-speedup-x")
}

// BenchmarkFig6Profile regenerates Figure 6's profiler counters.
func BenchmarkFig6Profile(b *testing.B) {
	p := benchPlatform()
	var occ float64
	for i := 0; i < b.N; i++ {
		rows := p.Fig6()
		occ = rows[4].Profile.Occupancy // POS
	}
	b.ReportMetric(occ*100, "POS-occupancy-%")
}

// BenchmarkFig7Batching regenerates the Figure 7 batch sweep for POS.
func BenchmarkFig7Batching(b *testing.B) {
	p := benchPlatform()
	var gain float64
	for i := 0; i < b.N; i++ {
		pts := p.Fig7(POS)
		best := 0.0
		for _, pt := range pts {
			if pt.QPS > best {
				best = pt.QPS
			}
		}
		gain = best / pts[0].QPS
	}
	b.ReportMetric(gain, "POS-batch-gain-x")
}

// BenchmarkFig8MPS regenerates the Figure 8/9 MPS study for POS (the
// discrete-event simulations dominate).
func BenchmarkFig8MPS(b *testing.B) {
	p := benchPlatform()
	var qps float64
	for i := 0; i < b.N; i++ {
		pts := p.Fig8(POS)
		qps = pts[len(pts)-1].MPSQPS
	}
	b.ReportMetric(qps, "POS-16inst-QPS")
}

// BenchmarkFig10Optimised regenerates Figure 10.
func BenchmarkFig10Optimised(b *testing.B) {
	p := benchPlatform()
	var face float64
	for i := 0; i < b.N; i++ {
		for _, r := range p.Fig10() {
			if r.App == FACE {
				face = r.Speedup
			}
		}
	}
	b.ReportMetric(face, "FACE-speedup-x")
}

// BenchmarkFig11Scaling regenerates Figure 11 (PCIe-limited scaling)
// for POS — the NLP plateau case.
func BenchmarkFig11Scaling(b *testing.B) {
	p := benchPlatform()
	var scale float64
	for i := 0; i < b.N; i++ {
		pts := p.Fig11(POS, true)
		scale = pts[len(pts)-1].QPS / pts[0].QPS
	}
	b.ReportMetric(scale, "POS-8GPU-scaling-x")
}

// BenchmarkFig12Unconstrained regenerates Figure 12 for ASR — the
// near-1000× case.
func BenchmarkFig12Unconstrained(b *testing.B) {
	p := benchPlatform()
	var speedup float64
	for i := 0; i < b.N; i++ {
		pts := p.Fig11(ASR, false)
		speedup = pts[len(pts)-1].Speedup
	}
	b.ReportMetric(speedup, "ASR-8GPU-speedup-x")
}

// BenchmarkFig13Bandwidth regenerates Figure 13.
func BenchmarkFig13Bandwidth(b *testing.B) {
	p := benchPlatform()
	var bw float64
	for i := 0; i < b.N; i++ {
		pts := p.Fig13(POS)
		bw = pts[len(pts)-1].BytesPS
	}
	b.ReportMetric(bw/1e9, "POS-8GPU-GB/s")
}

// BenchmarkTable4TCOModel prices a reference inventory.
func BenchmarkTable4TCOModel(b *testing.B) {
	p := benchPlatform()
	mix := p.Mix("MIXED")
	_ = mix
	for i := 0; i < b.N; i++ {
		experiments.RenderTable4()
	}
}

// BenchmarkFig15TCO regenerates the Figure 15 sweep for all mixes.
func BenchmarkFig15TCO(b *testing.B) {
	p := benchPlatform()
	var imp float64
	for i := 0; i < b.N; i++ {
		pts := p.Fig15("MIXED")
		imp = 1 / pts[len(pts)-1].Disagg
	}
	b.ReportMetric(imp, "MIXED-disagg-x")
}

// BenchmarkFig16Interconnects regenerates the Figure 16 study.
func BenchmarkFig16Interconnects(b *testing.B) {
	p := benchPlatform()
	var perf float64
	for i := 0; i < b.N; i++ {
		pts := p.Fig16("NLP")
		perf = pts[len(pts)-1].PerfScale
	}
	b.ReportMetric(perf, "NLP-QPI-perf-x")
}

// --- Real-system micro-benchmarks -----------------------------------

// BenchmarkServiceInferDIG measures the real in-process service path
// (batching queue + worker + forward pass) for one DIG query (100
// images).
func BenchmarkServiceInferDIG(b *testing.B) {
	srv := NewServer()
	srv.SetLogger(func(string, ...any) {})
	if err := RegisterApp(srv, DIG); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	payload := workload.QueryPayload(DIG, tensor.NewRNG(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Infer(ServiceName(DIG), payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceInferPOS measures one POS query (a 28-word sentence).
func BenchmarkServiceInferPOS(b *testing.B) {
	srv := NewServer()
	srv.SetLogger(func(string, ...any) {})
	if err := RegisterApp(srv, POS); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	payload := workload.QueryPayload(POS, tensor.NewRNG(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Infer(ServiceName(POS), payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceThroughputPOS saturates the in-process service with
// 8 concurrent clients and reports real queries per second.
func BenchmarkServiceThroughputPOS(b *testing.B) {
	srv := NewServer()
	srv.SetLogger(func(string, ...any) {})
	if err := RegisterApp(srv, POS); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	b.ResetTimer()
	var qps float64
	for i := 0; i < b.N; i++ {
		res := workload.DriveClosedLoop(srv, POS, ServiceName(POS), 8, 300*time.Millisecond)
		qps = res.QPS
	}
	b.ReportMetric(qps, "QPS")
}

// BenchmarkEndToEndNER measures the full Tonic pipeline: tokenise,
// embed, window, infer, Viterbi.
func BenchmarkEndToEndNER(b *testing.B) {
	srv := NewServer()
	srv.SetLogger(func(string, ...any) {})
	if err := RegisterApp(srv, NER); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ner := NewNER(srv)
	sentence := workload.Sentence(tensor.NewRNG(3), workload.SentenceWords)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ner.Recognize(sentence); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension-study benchmarks --------------------------------------

// BenchmarkExtOpenLoop regenerates the open-loop latency/load curve for
// POS.
func BenchmarkExtOpenLoop(b *testing.B) {
	p := benchPlatform()
	var lat float64
	for i := 0; i < b.N; i++ {
		pts := p.OpenLoop(POS)
		lat = pts[2].MeanLat
	}
	b.ReportMetric(lat*1e3, "POS-midload-ms")
}

// BenchmarkExtEnergy regenerates the energy-per-query study.
func BenchmarkExtEnergy(b *testing.B) {
	p := benchPlatform()
	var imp float64
	for i := 0; i < b.N; i++ {
		rows := p.Energy()
		imp = rows[3].Improvement // ASR
	}
	b.ReportMetric(imp, "ASR-energy-x")
}

// BenchmarkExtValidate regenerates the DES-vs-analytic provisioning
// validation.
func BenchmarkExtValidate(b *testing.B) {
	p := benchPlatform()
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows := p.ValidateDisaggServer()
		ratio = rows[0].Ratio
	}
	b.ReportMetric(ratio, "IMC-DES/analytic")
}

// BenchmarkExtCluster regenerates the end-to-end latency composition
// for DIG.
func BenchmarkExtCluster(b *testing.B) {
	p := benchPlatform()
	var lat float64
	for i := 0; i < b.N; i++ {
		rows := p.Cluster(DIG)
		lat = rows[1].Result.MeanLat
	}
	b.ReportMetric(lat*1e3, "DIG-disagg-ms")
}

// BenchmarkExtFutureGPUs regenerates the GPU-generation study.
func BenchmarkExtFutureGPUs(b *testing.B) {
	p := benchPlatform()
	var face float64
	for i := 0; i < b.N; i++ {
		for _, r := range p.FutureGPUs() {
			if r.App == FACE && r.VsK40 > face {
				face = r.VsK40
			}
		}
	}
	b.ReportMetric(face, "FACE-best-vs-K40")
}
