package tensor

import (
	"math"
	"testing"
)

// gemvBatchRef is the contract GemvBatch must meet bit for bit: one
// Gemv per instance.
func gemvBatchRef(m, n, batch int, a, x, y []float32) {
	for b := 0; b < batch; b++ {
		Gemv(m, n, 1, a, x[b*n:(b+1)*n], 0, y[b*m:(b+1)*m])
	}
}

// specialFloats are the IEEE edge cases every lane must propagate
// exactly as scalar Gemv does.
var specialFloats = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff), // largest subnormal
}

// fillGemvOperand fills v with values in [-1, 1); with special set,
// roughly one element in eight is replaced by an IEEE edge case.
func fillGemvOperand(rng *RNG, v []float32, special bool) {
	rng.FillUniform(v, -1, 1)
	if !special {
		return
	}
	for i := range v {
		if u := rng.Uint64(); u%8 == 0 {
			v[i] = specialFloats[(u/8)%uint64(len(specialFloats))]
		}
	}
}

// sameBits reports the first index where a and b differ in bits. Any
// NaN matches any NaN: IEEE 754 leaves open which NaN operand an add
// propagates, and the Go compiler orders commutative operands freely,
// so even two Go spellings of Gemv's loop disagree on a NaN's sign.
func sameBits(a, b []float32) (int, bool) {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) && !(a[i] != a[i] && b[i] != b[i]) {
			return i, false
		}
	}
	return 0, true
}

// gemvShapes covers every m % 4 and n % 4 residue, n = 1, and the
// SENNA l1/l2 shapes the NLP services run.
var gemvShapes = [][2]int{
	{1, 1}, {4, 1}, {7, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}, {6, 6}, {7, 7},
	{8, 8}, {9, 13}, {12, 17}, {13, 18}, {16, 19}, {45, 64}, {500, 300}, {9, 500},
}

var gemvBatches = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 28, 56}

func TestGemvBatchBitIdenticalToGemv(t *testing.T) {
	rng := NewRNG(40)
	for _, special := range []bool{false, true} {
		for _, s := range gemvShapes {
			m, n := s[0], s[1]
			a := make([]float32, m*n)
			fillGemvOperand(rng, a, special)
			for _, batch := range gemvBatches {
				x := make([]float32, batch*n)
				fillGemvOperand(rng, x, special)
				want := make([]float32, batch*m)
				got := make([]float32, batch*m)
				for i := range got {
					got[i] = float32(math.NaN()) // stale output must not leak
				}
				gemvBatchRef(m, n, batch, a, x, want)
				GemvBatch(m, n, batch, a, x, got, make([]float32, GemvBatchPanelLen(n)))
				if i, ok := sameBits(got, want); !ok {
					t.Fatalf("special=%v m=%d n=%d batch=%d: y[%d]=%v (%#x), Gemv %v (%#x)",
						special, m, n, batch, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
				}
			}
		}
	}
}

// TestGemvPanel4MatchesPortableKernel checks the build's tile kernel
// (SSE assembly on amd64) against the portable fallback directly, on
// every edge-case class, so the fallback stays exercised by the default
// build too.
func TestGemvPanel4MatchesPortableKernel(t *testing.T) {
	rng := NewRNG(41)
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 31, 300} {
		for _, rows := range []int{4, 8, 500} {
			a := make([]float32, rows*n)
			panel := make([]float32, GemvBatchPanelLen(n))
			fillGemvOperand(rng, a, true)
			fillGemvOperand(rng, panel, true)
			const ldy = 503 // not a multiple of 4: unaligned instance rows
			got := make([]float32, 3*ldy+rows)
			want := make([]float32, len(got))
			gemvPanel4(rows, n, a, panel, got, ldy)
			gemvPanel4Go(rows, n, a, panel, want, ldy)
			if i, ok := sameBits(got, want); !ok {
				t.Fatalf("rows=%d n=%d: y[%d]=%v, portable %v", rows, n, i, got[i], want[i])
			}
		}
	}
}

func TestGemvBatchParallelBitIdentical(t *testing.T) {
	rng := NewRNG(42)
	for _, s := range [][2]int{{1, 5}, {9, 13}, {45, 64}, {500, 325}} {
		m, n := s[0], s[1]
		a := make([]float32, m*n)
		fillGemvOperand(rng, a, false)
		for _, batch := range []int{1, 3, 4, 28, 30, 56} {
			x := make([]float32, batch*n)
			fillGemvOperand(rng, x, false)
			want := make([]float32, batch*m)
			gemvBatchRef(m, n, batch, a, x, want)
			for _, workers := range []int{1, 2, 3, 5, 200} {
				got := make([]float32, batch*m)
				panel := make([]float32, workers*GemvBatchPanelLen(n))
				GemvBatchParallel(workers, m, n, batch, a, x, got, panel)
				if i, ok := sameBits(got, want); !ok {
					t.Fatalf("m=%d n=%d batch=%d workers=%d: y[%d]=%v, Gemv %v", m, n, batch, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestGemvBatchZeroAlloc(t *testing.T) {
	const m, n, batch = 45, 300, 30
	a, x, y := make([]float32, m*n), make([]float32, batch*n), make([]float32, batch*m)
	panel := make([]float32, GemvBatchPanelLen(n))
	if allocs := testing.AllocsPerRun(20, func() { GemvBatch(m, n, batch, a, x, y, panel) }); allocs != 0 {
		t.Fatalf("GemvBatch: %.1f allocs per call, want 0", allocs)
	}
}

func TestGemvBatchPanicsOnShortBuffers(t *testing.T) {
	const m, n, batch = 8, 5, 4
	for short, name := range []string{"a", "x", "y", "panel"} {
		bufs := [][]float32{make([]float32, m*n), make([]float32, batch*n), make([]float32, batch*m), make([]float32, GemvBatchPanelLen(n))}
		bufs[short] = bufs[short][1:]
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("short %s: expected panic", name)
				}
			}()
			GemvBatch(m, n, batch, bufs[0], bufs[1], bufs[2], bufs[3])
		}()
	}
}
