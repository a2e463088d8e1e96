package nn

import (
	"fmt"
	"sync"
	"testing"

	"djinn/internal/tensor"
)

// zooNet exercises every in-place class the planner distinguishes:
// fusable conv+relu and fc+relu pairs, LRN (not in-place), pooling
// (shape change), grouped conv, sigmoid/hardtanh (in-place, unfused),
// dropout and softmax.
func zooNet(seed uint64) *Net {
	rng := tensor.NewRNG(seed)
	n := NewNet("zoo", KindCNN, 2, 8, 8)
	n.Add(NewConv("conv1", rng, 2, 4, 3, ConvOpt{Pad: 1})).
		Add(NewReLU("relu1")).
		Add(NewLRN("lrn1", 3, 0, 0, 0)).
		Add(NewPool("pool1", MaxPool, 2, 2, 0)).
		Add(NewConv("conv2", rng, 4, 6, 3, ConvOpt{Pad: 1, Groups: 2})).
		Add(NewSigmoid("sig1")).
		Add(NewPool("pool2", AvgPool, 2, 2, 0)).
		Add(NewFC("fc1", rng, 6*2*2, 16)).
		Add(NewReLU("relu2")).
		Add(NewDropout("drop1", 0.5)).
		Add(NewFC("fc2", rng, 16, 12)).
		Add(NewHardTanh("ht1")).
		Add(NewFC("fc3", rng, 12, 10)).
		Add(NewSoftmax("prob"))
	return n
}

func randInput(n *Net, batch int, seed uint64) *tensor.Tensor {
	in := tensor.New(append([]int{batch}, n.InShape()...)...)
	tensor.NewRNG(seed).FillNorm(in.Data(), 0, 1)
	return in
}

func TestPlanMatchesRunnerBitIdentical(t *testing.T) {
	for _, build := range []func(uint64) *Net{smallCNN, zooNet} {
		n := build(3)
		const maxBatch = 5
		runner := n.NewRunner(maxBatch)
		for _, workers := range []int{1, 2, 4} {
			plan := n.CompileOpts(maxBatch, CompileOpts{Workers: workers})
			for batch := 1; batch <= maxBatch; batch++ {
				in := randInput(n, batch, uint64(batch))
				want := runner.Forward(in)
				got := plan.Forward(in)
				if !shapeEq(got.Shape(), want.Shape()) {
					t.Fatalf("%s: plan shape %v, runner %v", n.Name(), got.Shape(), want.Shape())
				}
				for i := range got.Data() {
					if got.Data()[i] != want.Data()[i] {
						t.Fatalf("%s workers=%d batch=%d: out[%d]=%v, runner %v (must be bit-identical)",
							n.Name(), workers, batch, i, got.Data()[i], want.Data()[i])
					}
				}
			}
		}
	}
}

func TestPlanFusesAndAliases(t *testing.T) {
	n := zooNet(4)
	plan := n.Compile(2)
	fused, skipped, inplace := 0, 0, 0
	for i, st := range plan.steps {
		if st.fuse != nil {
			fused++
		}
		if st.skip {
			skipped++
		}
		if !st.skip && plan.slots[i+1] == plan.slots[i] {
			inplace++
		}
	}
	// conv1+relu1 and fc1+relu2 fuse; sig1, drop1, ht1, prob run in place.
	if fused != 2 || skipped != 2 {
		t.Fatalf("fused=%d skipped=%d, want 2 and 2", fused, skipped)
	}
	if inplace != 4 {
		t.Fatalf("in-place steps = %d, want 4 (sigmoid, dropout, hardtanh, softmax)", inplace)
	}
	// Retain mode disables all of it and gives every activation its own slot.
	retain := n.CompileOpts(2, CompileOpts{Retain: true})
	for i, st := range retain.steps {
		if st.fuse != nil || st.skip {
			t.Fatalf("retain plan step %d still fused/skipped", i)
		}
		if retain.slots[i+1] != i+1 {
			t.Fatalf("retain plan slot[%d]=%d, want %d", i+1, retain.slots[i+1], i+1)
		}
	}
}

func TestPlanActivationMemoryShrinks(t *testing.T) {
	n := zooNet(5)
	const maxBatch = 8
	plan := n.Compile(maxBatch)
	seed := n.ActivationBytes(maxBatch)
	got := plan.ActivationBytes()
	if got >= seed {
		t.Fatalf("plan activation bytes %d, seed layout %d: ping-pong aliasing saved nothing", got, seed)
	}
	if ratio := float64(seed) / float64(got); ratio < 1.5 {
		t.Fatalf("activation memory ratio %.2f, want ≥ 1.5 for a relu-heavy net", ratio)
	}
	// Retain-mode plans keep the full seed layout.
	if rb := n.CompileOpts(maxBatch, CompileOpts{Retain: true}).ActivationBytes(); rb != seed {
		t.Fatalf("retain plan activation bytes %d, want seed layout %d", rb, seed)
	}
}

// sennaNet mirrors the SENNA POS tagger (models.buildSenna): a 5-word
// window of 60-d features, a 500-unit HardTanh layer and a 45-tag
// classifier. The models package cannot be imported from here.
func sennaNet(seed uint64) *Net {
	rng := tensor.NewRNG(seed)
	n := NewNet("senna", KindDNN, 300)
	n.Add(NewFC("l1", rng, 300, 500)).
		Add(NewHardTanh("hardtanh")).
		Add(NewFC("l2", rng, 500, 45)).
		Add(NewSoftmax("prob"))
	return n
}

func TestPlanZeroAllocSteadyState(t *testing.T) {
	cases := []struct {
		build    func(uint64) *Net
		maxBatch int
		batches  []int
	}{
		{smallCNN, 4, []int{4}},
		{zooNet, 4, []int{4}},
		// The NLP services' plan capacity (64 queries × 28 words),
		// run at one and two sentences: full and partial 4-instance
		// FC tiles, and leftover rows in l2.
		{sennaNet, 1792, []int{28, 30, 56}},
	}
	for _, c := range cases {
		n := c.build(6)
		plan := n.Compile(c.maxBatch)
		for _, batch := range c.batches {
			in := randInput(n, batch, 1)
			plan.Forward(in) // warm up (nothing should grow, but be fair)
			if allocs := testing.AllocsPerRun(20, func() { plan.Forward(in) }); allocs != 0 {
				t.Fatalf("%s batch=%d: %.1f allocs per forward on the serial plan path, want 0", n.Name(), batch, allocs)
			}
		}
	}
}

func TestPlanInRunZeroCopyEntry(t *testing.T) {
	n := smallCNN(7)
	plan := n.Compile(3)
	runner := n.NewRunner(3)
	in := randInput(n, 2, 9)
	want := runner.Forward(in)
	// Gather straight into the plan's input arena, then Run.
	copy(plan.In(2).Data(), in.Data())
	got := plan.Run(2)
	for i := range got.Data() {
		if got.Data()[i] != want.Data()[i] {
			t.Fatalf("In+Run out[%d]=%v, runner %v", i, got.Data()[i], want.Data()[i])
		}
	}
	// Forward with the input view itself must detect aliasing, skip the
	// overlapping copy, and still produce the same result. (smallCNN's
	// plan never writes the input arena, so the gather above is intact.)
	got = plan.Forward(plan.In(2))
	for i := range got.Data() {
		if got.Data()[i] != want.Data()[i] {
			t.Fatalf("aliased Forward out[%d]=%v, runner %v", i, got.Data()[i], want.Data()[i])
		}
	}
}

func TestPlanConcurrentCheckoutsOverSharedNet(t *testing.T) {
	// Race-stress (run under -race in CI): many plans over one shared
	// Net forwarding concurrently, with intra-op workers enabled, must
	// neither race on the weights nor corrupt each other's results.
	n := zooNet(8)
	const maxBatch = 3
	ref := n.NewRunner(maxBatch)
	inputs := make([]*tensor.Tensor, maxBatch)
	wants := make([][]float32, maxBatch)
	for b := 1; b <= maxBatch; b++ {
		inputs[b-1] = randInput(n, b, uint64(100+b))
		wants[b-1] = append([]float32(nil), ref.Forward(inputs[b-1]).Data()...)
	}
	const goroutines = 8
	pool := make(chan *Plan, goroutines)
	for i := 0; i < goroutines; i++ {
		pool <- n.CompileOpts(maxBatch, CompileOpts{Workers: 2})
	}
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 30; it++ {
				b := (g+it)%maxBatch + 1
				plan := <-pool
				out := plan.Forward(inputs[b-1])
				for i, v := range out.Data() {
					if v != wants[b-1][i] {
						pool <- plan
						errCh <- fmt.Errorf("goroutine %d iter %d batch %d: out[%d]=%v want %v", g, it, b, i, v, wants[b-1][i])
						return
					}
				}
				pool <- plan
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

func TestPlanBatchValidation(t *testing.T) {
	n := smallCNN(9)
	plan := n.Compile(2)
	for _, fn := range []func(){
		func() { plan.In(0) },
		func() { plan.In(3) },
		func() { plan.Run(3) },
		func() { plan.Forward(randInput(n, 3, 1)) },
		func() { n.Compile(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
	// Wrong per-sample shape with a legal batch.
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape-mismatch panic")
		}
	}()
	plan.Forward(tensor.New(2, 3))
}

// planOnlyLayer is a Layer outside the standard zoo: the planner must
// fall back to its defaults (no fusion, no in-place, lazily grown
// scratch) and still execute it correctly.
type planOnlyLayer struct{ dim int }

func (p *planOnlyLayer) Name() string                                  { return "custom" }
func (p *planOnlyLayer) Kind() string                                  { return "custom" }
func (p *planOnlyLayer) Params() []*Param                              { return nil }
func (p *planOnlyLayer) OutShape(in []int) ([]int, error)              { return in, nil }
func (p *planOnlyLayer) Kernels(in []int, b int, ks []Kernel) []Kernel { return ks }
func (p *planOnlyLayer) Forward(ctx *Ctx, in, out *tensor.Tensor) {
	s := ctx.scratch(p.dim) // grows lazily: planner knows nothing about it
	for i, v := range in.Data() {
		s[i%p.dim] = v
		out.Data()[i] = 2 * v
	}
}

func TestPlanHandlesUnknownLayerKinds(t *testing.T) {
	rng := tensor.NewRNG(10)
	n := NewNet("custom-net", KindDNN, 6)
	n.Add(NewFC("fc1", rng, 6, 6)).
		Add(&planOnlyLayer{dim: 6}).
		Add(NewReLU("relu1")). // relu after a non-fusable layer stays a real step
		Add(NewSoftmax("prob"))
	runner := n.NewRunner(2)
	plan := n.Compile(2)
	in := randInput(n, 2, 11)
	want := runner.Forward(in)
	got := plan.Forward(in)
	for i := range got.Data() {
		if got.Data()[i] != want.Data()[i] {
			t.Fatalf("custom layer out[%d]=%v, runner %v", i, got.Data()[i], want.Data()[i])
		}
	}
}
