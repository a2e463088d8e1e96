package nn

import (
	"fmt"
	"math"
	"testing"

	"djinn/internal/tensor"
)

func TestParsePrecisionRoundTrip(t *testing.T) {
	for _, p := range []Precision{Float32, Int8} {
		got, err := ParsePrecision(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePrecision(%q) = %v, %v", p.String(), got, err)
		}
	}
	if p, err := ParsePrecision(""); err != nil || p != Float32 {
		t.Fatalf("empty precision = %v, %v, want Float32", p, err)
	}
	for _, bad := range []string{"float16", "float32-packed", "packed"} {
		if _, err := ParsePrecision(bad); err == nil {
			t.Fatalf("ParsePrecision(%q) should fail", bad)
		}
	}
}

// convOracle is the blocked-GEMM lowering of a convolution: per image
// and group, Im2col + tensor.Gemm, then the bias rows (and ReLU) as a
// separate pass.
func convOracle(c *Conv, in *tensor.Tensor, relu bool) []float32 {
	batch := in.Dim(0)
	inShape := in.Shape()[1:]
	g := c.geom(inShape)
	outSpatial := g.OutH() * g.OutW()
	gInC, gOutC := c.InC/c.Groups, c.OutC/c.Groups
	kTaps := gInC * c.KernelH * c.KernelW
	groupGeom := g
	groupGeom.Channels = gInC
	col := make([]float32, kTaps*outSpatial)
	out := make([]float32, batch*c.OutC*outSpatial)
	inPer, groupIn := sampleElems(inShape), gInC*g.Height*g.Width
	w := c.Weight.W.Data()
	for b := 0; b < batch; b++ {
		dst := out[b*c.OutC*outSpatial : (b+1)*c.OutC*outSpatial]
		for grp := 0; grp < c.Groups; grp++ {
			img := in.Data()[b*inPer+grp*groupIn : b*inPer+(grp+1)*groupIn]
			tensor.Im2col(groupGeom, img, col)
			tensor.Gemm(gOutC, outSpatial, kTaps, 1, w[grp*gOutC*kTaps:(grp+1)*gOutC*kTaps], col,
				0, dst[grp*gOutC*outSpatial:(grp+1)*gOutC*outSpatial])
		}
		if relu {
			tensor.AddBiasRowsReLU(c.OutC, outSpatial, dst, c.Bias.W.Data())
		} else {
			tensor.AddBiasRows(c.OutC, outSpatial, dst, c.Bias.W.Data())
		}
	}
	return out
}

// TestConvForwardMatchesBlockedGemm pins the one conv forward (im2col,
// PackB, packed GEMM with the bias epilogue) to the blocked-GEMM
// lowering, bit for bit: through a fused conv+ReLU plan at several
// worker counts and through the unfused Runner. 64 input channels make
// the per-group reduction longer than one packed k block, and the odd
// output extents leave fringe tiles.
func TestConvForwardMatchesBlockedGemm(t *testing.T) {
	const maxBatch = 3
	for _, groups := range []int{1, 2} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1} {
				rng := tensor.NewRNG(uint64(100*groups + 10*stride + pad))
				conv := NewConv("conv", rng, 64, 6, 3, ConvOpt{Stride: stride, Pad: pad, Groups: groups})
				rng.FillNorm(conv.Bias.W.Data(), 0, 1)
				fused := NewNet("conv-relu", KindCNN, 64, 9, 7)
				fused.Add(conv).Add(NewReLU("relu"))
				unfused := NewNet("conv", KindCNN, 64, 9, 7)
				unfused.Add(conv)
				runner := unfused.NewRunner(maxBatch)
				plans := map[int]*Plan{}
				for _, workers := range []int{1, 2, 3} {
					plans[workers] = fused.CompileOpts(maxBatch, CompileOpts{Workers: workers})
				}
				for batch := 1; batch <= maxBatch; batch++ {
					in := randInput(unfused, batch, uint64(batch))
					check := func(path string, got, want []float32) {
						t.Helper()
						if len(got) != len(want) {
							t.Fatalf("groups=%d stride=%d pad=%d batch=%d %s: %d outputs, oracle %d",
								groups, stride, pad, batch, path, len(got), len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("groups=%d stride=%d pad=%d batch=%d %s: out[%d]=%v, blocked GEMM %v (must be bit-identical)",
									groups, stride, pad, batch, path, i, got[i], want[i])
							}
						}
					}
					check("runner", runner.Forward(in).Data(), convOracle(conv, in, false))
					wantReLU := convOracle(conv, in, true)
					for workers, plan := range plans {
						check(fmt.Sprintf("plan workers=%d", workers), plan.Forward(in).Data(), wantReLU)
					}
				}
			}
		}
	}
}

// TestInt8PlanCloseAndMostlyAgrees checks the quantized plan end to end
// on the zoo net: softmax outputs stay close to the float32 plan's and
// the argmax agrees on the overwhelming majority of random inputs. (The
// seven-net ≥99% top-1 gate lives in internal/models' golden harness.)
func TestInt8PlanCloseAndMostlyAgrees(t *testing.T) {
	n := zooNet(13)
	const maxBatch = 4
	ref := n.Compile(maxBatch)
	plan := n.CompileOpts(maxBatch, CompileOpts{Precision: Int8})
	if plan.Precision() != Int8 {
		t.Fatalf("plan precision = %v", plan.Precision())
	}
	samples, agree := 0, 0
	for trial := 0; trial < 25; trial++ {
		batch := trial%maxBatch + 1
		in := randInput(n, batch, uint64(40+trial))
		want := ref.Forward(in)
		got := plan.Forward(in)
		classes := want.Dim(1)
		for i := range got.Data() {
			if math.Abs(float64(got.Data()[i]-want.Data()[i])) > 0.05 {
				t.Fatalf("trial=%d: prob[%d]=%v, float32 %v: quantization error too large", trial, i, got.Data()[i], want.Data()[i])
			}
		}
		for b := 0; b < batch; b++ {
			samples++
			if tensor.Argmax(got.Data()[b*classes:(b+1)*classes]) == tensor.Argmax(want.Data()[b*classes:(b+1)*classes]) {
				agree++
			}
		}
	}
	if frac := float64(agree) / float64(samples); frac < 0.9 {
		t.Fatalf("int8 top-1 agreement %.2f (%d/%d), want ≥ 0.90", frac, agree, samples)
	}
}

// TestInt8PlanWorkersBitIdentical: integer accumulation is associative,
// so the quantized plan is bit-identical across worker counts by
// construction — a stronger guarantee than the float path needs careful
// row-splitting for.
func TestInt8PlanWorkersBitIdentical(t *testing.T) {
	n := zooNet(14)
	const maxBatch = 3
	serial := n.CompileOpts(maxBatch, CompileOpts{Precision: Int8})
	for _, workers := range []int{2, 3, 5} {
		plan := n.CompileOpts(maxBatch, CompileOpts{Workers: workers, Precision: Int8})
		for batch := 1; batch <= maxBatch; batch++ {
			in := randInput(n, batch, uint64(50+batch))
			want := serial.Forward(in)
			got := plan.Forward(in)
			for i := range got.Data() {
				if got.Data()[i] != want.Data()[i] {
					t.Fatalf("workers=%d batch=%d: out[%d]=%v, serial %v (must be bit-identical)",
						workers, batch, i, got.Data()[i], want.Data()[i])
				}
			}
		}
	}
}

func TestPrecisionPlansZeroAllocSteadyState(t *testing.T) {
	n := zooNet(15)
	plan := n.CompileOpts(4, CompileOpts{Precision: Int8})
	in := randInput(n, 4, 16)
	plan.Forward(in)
	if allocs := testing.AllocsPerRun(20, func() { plan.Forward(in) }); allocs != 0 {
		t.Fatalf("int8: %.1f allocs per forward, want 0", allocs)
	}
}

// TestRetainForcesFloat32: training plans never route through precision
// backends — Backward reads float32 weights.
func TestRetainForcesFloat32(t *testing.T) {
	n := zooNet(17)
	plan := n.CompileOpts(2, CompileOpts{Retain: true, Precision: Int8})
	if plan.Precision() != Float32 {
		t.Fatalf("retain plan precision = %v, want Float32", plan.Precision())
	}
	for i, st := range plan.steps {
		if st.exec != nil {
			t.Fatalf("retain plan step %d has a backend exec installed", i)
		}
	}
}

// TestPreQuantizedParamBitIdentical: a Param.Q loaded from a model file
// (produced by the same QuantizeSymmetric the compiler runs) yields a
// bit-identical int8 plan to on-the-fly quantization.
func TestPreQuantizedParamBitIdentical(t *testing.T) {
	const seed = 18
	onTheFly := zooNet(seed).CompileOpts(2, CompileOpts{Precision: Int8})

	n := zooNet(seed)
	for _, l := range n.Layers() {
		switch l.Kind() {
		case "conv", "fc":
			w := l.Params()[0]
			q := make([]int8, w.W.Len())
			scale := tensor.QuantizeSymmetric(w.W.Data(), q)
			w.Q = &QuantizedParam{Scale: scale, Data: q}
		}
	}
	stored := n.CompileOpts(2, CompileOpts{Precision: Int8})

	in := randInput(n, 2, 19)
	want := onTheFly.Forward(in)
	got := stored.Forward(in)
	for i := range got.Data() {
		if got.Data()[i] != want.Data()[i] {
			t.Fatalf("out[%d]=%v, on-the-fly %v (must be bit-identical)", i, got.Data()[i], want.Data()[i])
		}
	}
}
