package nn

import (
	"fmt"

	"djinn/internal/tensor"
)

// Plan is a compile-once execution plan for one Net: everything the
// per-call forward path used to compute or allocate — batch-limited
// activation views, im2col scratch, buffer wiring — is precomputed at
// Compile time, so the steady-state forward pass performs zero heap
// allocations. The plan also rewires execution for inference:
//
//   - Elementwise layers (ReLU, sigmoid, tanh, hardtanh, dropout,
//     softmax) run in place over their input buffer, and the remaining
//     layers ping-pong between two shared arenas, so a plan holds two
//     working activation buffers instead of one per layer.
//   - A conv or FC layer immediately followed by ReLU runs with the
//     activation fused into its bias epilogue, eliminating the ReLU
//     layer's full pass over the output.
//   - GEMM-backed layers split their output rows across Workers
//     goroutines (see Ctx.Workers).
//
// All three transformations preserve the serial per-element operation
// order, so plan outputs are bit-identical to the seed Runner path.
//
// A Plan owns private buffers and is NOT safe for concurrent use; the
// underlying Net's weights are shared read-only, so any number of plans
// may execute concurrently over one Net (DjiNN's load-once model). Use
// one plan per worker, or a checkout pool.
type Plan struct {
	net       *Net
	ctx       *Ctx
	maxBatch  int
	retain    bool
	precision Precision
	steps     []planStep
	arenas    [][]float32        // slot 0 is the input arena
	slots     []int              // arena slot per activation (len(steps)+1)
	views     [][]*tensor.Tensor // views[b-1][i]: activation i as a [b,...] tensor

	// Int8 packing scratch owned by the plan, sized at Compile by
	// buildBackend; nil at Float32. Weight-derived quantized operands
	// live on the layers instead (see backend.go).
	qB    []uint8  // quantized im2col columns, offset panels
	qBSum []int32  // per-column signed sums for the B scratch
	qA    []uint64 // quantized FC activations, lane pairs
	qASum []int32  // per-row signed sums for the A scratch
}

type planStep struct {
	layer Layer
	fuse  fusedBiasReLU // non-nil: forward runs with the next ReLU fused in
	skip  bool          // output already produced by a fused predecessor
	// exec, when non-nil, runs the step through the int8 kernels
	// instead of layer.Forward; it already honours fuse. Installed by
	// buildBackend.
	exec func(in, out *tensor.Tensor)
}

// CompileOpts tunes plan compilation.
type CompileOpts struct {
	// Workers is the intra-op GEMM parallelism (Ctx.Workers). Zero or 1
	// runs the serial kernels.
	Workers int
	// Retain keeps every layer's activations in a private buffer and
	// disables in-place execution and ReLU fusion, exactly the seed
	// memory layout. Required for Backward; Runner compiles with it.
	Retain bool
	// Precision selects the kernel backend for conv and FC layers. The
	// zero value (Float32) runs each layer's own Forward. Retain-mode
	// plans always compile at Float32 — Backward reads float32 weights
	// and the training path never routes through the int8 kernels.
	Precision Precision
}

// Compile builds an inference execution plan able to process up to
// maxBatch samples per call.
func (n *Net) Compile(maxBatch int) *Plan {
	return n.CompileOpts(maxBatch, CompileOpts{})
}

// CompileOpts builds an execution plan with explicit options.
func (n *Net) CompileOpts(maxBatch int, o CompileOpts) *Plan {
	if maxBatch <= 0 {
		panic("nn: Compile: maxBatch must be positive")
	}
	p := &Plan{
		net:      n,
		ctx:      NewCtx(uint64(0x5eed) + uint64(len(n.layers))),
		maxBatch: maxBatch,
		retain:   o.Retain,
		steps:    make([]planStep, len(n.layers)),
		slots:    make([]int, len(n.layers)+1),
	}
	p.ctx.Workers = o.Workers

	// Per-sample shape and element count of every activation, input first.
	actShapes := make([][]int, len(n.layers)+1)
	actShapes[0] = n.inShape
	copy(actShapes[1:], n.shapes)
	elems := make([]int, len(actShapes))
	for i, s := range actShapes {
		elems[i] = sampleElems(s)
	}

	// Step marking: fused conv/FC+ReLU pairs and in-place elementwise
	// layers (inference only — Retain keeps the seed wiring for
	// Backward, which needs distinct in/out per layer).
	for i, l := range n.layers {
		p.steps[i].layer = l
		if o.Retain || p.steps[i].skip {
			continue
		}
		if fl, ok := l.(fusedBiasReLU); ok && i+1 < len(n.layers) {
			if act, ok := n.layers[i+1].(*Activation); ok && act.Kind() == "relu" {
				p.steps[i].fuse = fl
				p.steps[i+1].skip = true
			}
		}
	}

	// Arena slot assignment: the input lives in slot 0; non-in-place
	// layer outputs ping-pong between slots 1 and 2; in-place layers
	// (and fused-away ReLUs) stay on their input's slot. Retain mode
	// gives every activation its own slot.
	cur := 0
	for i := range n.layers {
		switch {
		case o.Retain:
			cur = i + 1
		case p.steps[i].skip || p.inPlace(i):
			// keep cur
		default:
			if cur == 1 {
				cur = 2
			} else {
				cur = 1
			}
		}
		p.slots[i+1] = cur
	}

	// One arena per slot, sized to the largest activation assigned to it.
	nSlots := 0
	for _, s := range p.slots {
		if s+1 > nSlots {
			nSlots = s + 1
		}
	}
	sizes := make([]int, nSlots)
	for i, s := range p.slots {
		if need := maxBatch * elems[i]; need > sizes[s] {
			sizes[s] = need
		}
	}
	p.arenas = make([][]float32, nSlots)
	for s, size := range sizes {
		p.arenas[s] = make([]float32, size)
	}

	// Precompute every batch-limited activation view, killing the
	// per-call view()/FromSlice allocations of the seed path.
	p.views = make([][]*tensor.Tensor, maxBatch)
	for b := 1; b <= maxBatch; b++ {
		v := make([]*tensor.Tensor, len(p.slots))
		for i, s := range p.slots {
			v[i] = tensor.FromSlice(p.arenas[s][:b*elems[i]], append([]int{b}, actShapes[i]...)...)
		}
		p.views[b-1] = v
	}

	// Size the shared scratch (conv im2col columns plus their packed
	// panels, Local patches, FC pack panels) up front so no layer grows it at run time. Custom layers
	// outside the zoo still grow it lazily.
	scratch := 0
	for i, l := range n.layers {
		switch t := l.(type) {
		case *Conv:
			kTaps := (t.InC / t.Groups) * t.KernelH * t.KernelW
			outSpatial := actShapes[i+1][1] * actShapes[i+1][2]
			if need := kTaps*outSpatial + tensor.PackedBLen(kTaps, outSpatial); need > scratch {
				scratch = need
			}
		case *Local:
			if need := t.InC * t.Kernel * t.Kernel; need > scratch {
				scratch = need
			}
		case *FC:
			if need := p.ctx.workers() * tensor.GemvBatchPanelLen(t.In); need > scratch {
				scratch = need
			}
		}
	}
	if scratch > 0 {
		p.ctx.scratch(scratch)
	}

	// Route conv/FC steps through the int8 kernels. Retain compiles at
	// the reference precision: training reads float32 weights and the
	// seed memory layout.
	if o.Precision == Int8 && !o.Retain {
		p.precision = Int8
		p.buildBackend()
	}
	return p
}

// inPlace reports whether layer i may write its output over its input
// buffer: elementwise layers whose Forward never reads an element after
// writing it. LRN is excluded (each output reads a window of inputs
// across channels); pooling and the weighted layers change shape or
// need their full input.
func (p *Plan) inPlace(i int) bool {
	switch p.net.layers[i].(type) {
	case *Activation, *Dropout, *Softmax:
		return true
	}
	return false
}

// Net returns the network this plan executes.
func (p *Plan) Net() *Net { return p.net }

// MaxBatch returns the batch capacity.
func (p *Plan) MaxBatch() int { return p.maxBatch }

// Workers returns the intra-op worker count the plan was compiled with.
func (p *Plan) Workers() int { return p.ctx.workers() }

// Precision returns the kernel backend the plan was compiled with.
func (p *Plan) Precision() Precision { return p.precision }

// ActivationBytes returns the plan's resident activation memory: the
// sum of its arenas. With ping-pong aliasing this is roughly two large
// activations instead of the seed layout's one per layer (see
// Net.ActivationBytes for the latter).
func (p *Plan) ActivationBytes() int64 {
	var total int64
	for _, a := range p.arenas {
		total += int64(4 * len(a))
	}
	return total
}

// In returns the plan's input buffer as a [batch, inShape...] view.
// Callers gather payloads directly into its Data() and then call Run —
// the zero-copy entry the service's batch path uses.
func (p *Plan) In(batch int) *tensor.Tensor {
	p.checkBatch(batch)
	return p.views[batch-1][0]
}

// Out returns the output view of the last Run at the given batch.
func (p *Plan) Out(batch int) *tensor.Tensor {
	p.checkBatch(batch)
	return p.views[batch-1][len(p.slots)-1]
}

func (p *Plan) checkBatch(batch int) {
	if batch < 1 || batch > p.maxBatch {
		panic(fmt.Sprintf("nn: Forward: batch %d out of range [1,%d]", batch, p.maxBatch))
	}
}

// Run executes the forward pass over the first batch samples already
// gathered into In(batch), returning the output [batch, outShape...]
// tensor. The result is owned by the plan and valid until the next Run.
func (p *Plan) Run(batch int) *tensor.Tensor {
	p.checkBatch(batch)
	v := p.views[batch-1]
	cur := v[0]
	for i := range p.steps {
		st := &p.steps[i]
		out := v[i+1]
		if st.skip {
			cur = out // aliases the fused predecessor's output
			continue
		}
		switch {
		case st.exec != nil:
			st.exec(cur, out)
		case st.fuse != nil:
			st.fuse.forwardReLU(p.ctx, cur, out)
		default:
			st.layer.Forward(p.ctx, cur, out)
		}
		cur = out
	}
	return cur
}

// Forward copies input into the plan's input buffer and runs the
// network, mirroring Runner.Forward. The copy is skipped when input
// already aliases In(batch) (a caller that gathered in place).
func (p *Plan) Forward(input *tensor.Tensor) *tensor.Tensor {
	batch := input.Dim(0)
	p.checkBatch(batch)
	if wantPer := sampleElems(p.net.inShape); input.Len() != batch*wantPer {
		panic(fmt.Sprintf("nn: Forward: input %v does not match net input shape %v", input.Shape(), p.net.inShape))
	}
	dst := p.views[batch-1][0]
	src, d := input.Data(), dst.Data()
	if len(src) == 0 || len(d) == 0 || &src[0] != &d[0] {
		copy(d, src)
	}
	return p.Run(batch)
}

// ActivationBytes returns the activation memory of the seed layout at
// the given batch: one buffer per layer output plus the input, what a
// Retain-mode plan (and the original Runner) allocates. The ratio to
// Plan.ActivationBytes is the ping-pong saving.
func (n *Net) ActivationBytes(maxBatch int) int64 {
	total := int64(sampleElems(n.inShape))
	for _, s := range n.shapes {
		total += int64(sampleElems(s))
	}
	return 4 * int64(maxBatch) * total
}
