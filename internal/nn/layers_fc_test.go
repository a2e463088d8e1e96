package nn

import (
	"fmt"
	"testing"

	"djinn/internal/tensor"
)

// BenchmarkFCForward times the float32 FC forward pass at the shapes
// the Tonic services run — SENNA l1/l2 at one and two 28-word
// sentences, the DIG classifier's ip1 at a 100-image query and one ASR
// affine layer at a 548-frame utterance — against the per-instance Gemv
// loop it replaced, reporting GFLOP/s for each.
func BenchmarkFCForward(b *testing.B) {
	cases := []struct {
		name          string
		in, out, inst int
	}{
		{"senna-l1", 300, 500, 28},
		{"senna-l1", 300, 500, 56},
		{"senna-l2", 500, 45, 28},
		{"senna-l2", 500, 45, 56},
		{"dig-ip1", 640, 56, 100},
		{"asr-affine1", 2146, 2048, 548},
	}
	for _, c := range cases {
		rng := tensor.NewRNG(1)
		f := NewFC(c.name, rng, c.in, c.out)
		in := tensor.New(c.inst, c.in)
		rng.FillNorm(in.Data(), 0, 1)
		out := tensor.New(c.inst, c.out)
		ctx := NewCtx(1)
		w, bias := f.Weight.W.Data(), f.Bias.W.Data()
		flops := 2 * float64(c.in) * float64(c.out) * float64(c.inst)
		for _, k := range []struct {
			name string
			run  func()
		}{
			{"batch", func() { f.Forward(ctx, in, out) }},
			{"gemv", func() {
				for s := 0; s < c.inst; s++ {
					tensor.Gemv(c.out, c.in, 1, w, in.Data()[s*c.in:(s+1)*c.in], 0, out.Data()[s*c.out:(s+1)*c.out])
				}
				tensor.AddBias(c.inst, c.out, out.Data(), bias)
			}},
		} {
			b.Run(fmt.Sprintf("%s/inst=%d/kernel=%s", c.name, c.inst, k.name), func(b *testing.B) {
				k.run() // size the context's panel scratch before timing
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k.run()
				}
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
