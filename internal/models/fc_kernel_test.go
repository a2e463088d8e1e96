package models

import (
	"math"
	"testing"

	"djinn/internal/nn"
	"djinn/internal/tensor"
)

// gemvForward is an independent reference forward pass: every FC layer
// runs one tensor.Gemv per instance plus a bias pass, the float32 path
// the multi-instance FC kernel replaced; every other layer runs its own
// Forward on a private buffer.
func gemvForward(net *nn.Net, in *tensor.Tensor) *tensor.Tensor {
	batch := in.Dim(0)
	ctx := nn.NewCtx(1)
	cur := in
	for i, l := range net.Layers() {
		out := tensor.New(append([]int{batch}, net.Shapes()[i]...)...)
		if fc, ok := l.(*nn.FC); ok {
			w := fc.Weight.W.Data()
			for b := 0; b < batch; b++ {
				tensor.Gemv(fc.Out, fc.In, 1, w, cur.Data()[b*fc.In:(b+1)*fc.In], 0, out.Data()[b*fc.Out:(b+1)*fc.Out])
			}
			tensor.AddBias(batch, fc.Out, out.Data(), fc.Bias.W.Data())
		} else {
			l.Forward(ctx, cur, out)
		}
		cur = out
	}
	return cur
}

// TestFCKernelPlansMatchPerInstanceGemv pins the float32 FC kernel's
// contract at the plan level: on the FC-bound Tonic nets, at one and two
// sentences' worth of instances (full and partial 4-instance tiles),
// compiled plans produce exactly the bytes of the per-instance Gemv
// path for every intra-op worker split.
func TestFCKernelPlansMatchPerInstanceGemv(t *testing.T) {
	for _, a := range []App{POS, CHK, NER, DIG} {
		net := BuildCached(a)
		for _, batch := range []int{28, 30, 56} {
			in := tensor.New(append([]int{batch}, net.InShape()...)...)
			tensor.NewRNG(uint64(a)*131+uint64(batch)).FillNorm(in.Data(), 0, 1)
			want := gemvForward(net, in).Data()
			for _, workers := range []int{1, 2, 3} {
				got := net.CompileOpts(batch, nn.CompileOpts{Workers: workers}).Forward(in).Data()
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s batch=%d workers=%d: out[%d] = %v, per-instance Gemv %v", a, batch, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}
