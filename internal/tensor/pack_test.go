package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

// packedShapes deliberately cover tiles, fringes (m, n not multiples of
// the 4×4 microtile), single rows/columns, and k extents beyond one
// packKC block.
var packedShapes = [][3]int{
	{1, 1, 1}, {4, 4, 4}, {3, 5, 7}, {5, 9, 3}, {17, 23, 31},
	{64, 64, 64}, {33, 65, 300}, {2, 257, 129}, {1, 301, 70}, {96, 121, 363},
}

func TestPackedBLen(t *testing.T) {
	if got := PackedBLen(3, 5); got != 2*3*packNR {
		t.Fatalf("PackedBLen(3,5)=%d", got)
	}
	if got := PackedBLen(7, 4); got != 7*packNR {
		t.Fatalf("PackedBLen(7,4)=%d", got)
	}
	if got := PackedBLen(5, 0); got != 0 {
		t.Fatalf("PackedBLen(5,0)=%d", got)
	}
}

// TestGemmPackedBitIdenticalToGemm pins the central numerical contract
// of the packed backend: for finite inputs it produces exactly the bytes
// Gemm(m,n,k,1,a,b,0,c) does, because every output element accumulates
// its products one at a time in the same ascending-k order and partials
// round-trip through C at the same k-block granularity semantics.
func TestGemmPackedBitIdenticalToGemm(t *testing.T) {
	rng := NewRNG(31)
	for _, s := range packedShapes {
		m, n, k := s[0], s[1], s[2]
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		rng.FillUniform(a, -1, 1)
		rng.FillUniform(b, -1, 1)
		// Sprinkle exact zeros so the reference kernel's av==0 skip is
		// exercised against the packed kernel's unconditional add.
		for i := 0; i < len(a); i += 7 {
			a[i] = 0
		}
		bp := make([]float32, PackedBLen(k, n))
		PackB(k, n, b, bp)
		got := make([]float32, m*n)
		rng.FillUniform(got, -9, 9) // must be overwritten
		GemmPacked(m, n, k, a, bp, got, EpNone, nil)
		want := make([]float32, m*n)
		Gemm(m, n, k, 1, a, b, 0, want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("m=%d n=%d k=%d: c[%d]=%v, Gemm %v (must be bit-identical)", m, n, k, i, got[i], want[i])
			}
		}
	}
}

func TestGemmPackedMatchesNaive(t *testing.T) {
	rng := NewRNG(32)
	f := func(mRaw, nRaw, kRaw uint8) bool {
		m, n, k := int(mRaw%40)+1, int(nRaw%40)+1, int(kRaw%40)+1
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		rng.FillUniform(a, -2, 2)
		rng.FillUniform(b, -2, 2)
		bp := make([]float32, PackedBLen(k, n))
		PackB(k, n, b, bp)
		c1 := make([]float32, m*n)
		c2 := make([]float32, m*n)
		GemmPacked(m, n, k, a, bp, c1, EpNone, nil)
		GemmNaive(m, n, k, 1, a, b, 0, c2)
		for i := range c1 {
			if math.Abs(float64(c1[i]-c2[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestGemmPackedEpiloguesBitIdentical checks each fused epilogue against
// the unfused reference sequence (Gemm then AddBias*/ReLU), which the
// plan's float32 reference path uses.
func TestGemmPackedEpiloguesBitIdentical(t *testing.T) {
	rng := NewRNG(33)
	for _, s := range packedShapes {
		m, n, k := s[0], s[1], s[2]
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		colBias := make([]float32, n)
		rowBias := make([]float32, m)
		rng.FillUniform(a, -1, 1)
		rng.FillUniform(b, -1, 1)
		rng.FillUniform(colBias, -1, 1)
		rng.FillUniform(rowBias, -1, 1)
		bp := make([]float32, PackedBLen(k, n))
		PackB(k, n, b, bp)
		base := make([]float32, m*n)
		Gemm(m, n, k, 1, a, b, 0, base)

		cases := []struct {
			ep   Epilogue
			bias []float32
			ref  func(c []float32)
		}{
			{EpBiasCol, colBias, func(c []float32) { AddBias(m, n, c, colBias) }},
			{EpBiasColReLU, colBias, func(c []float32) { AddBiasReLU(m, n, c, colBias) }},
			{EpBiasRow, rowBias, func(c []float32) { AddBiasRows(m, n, c, rowBias) }},
			{EpBiasRowReLU, rowBias, func(c []float32) { AddBiasRowsReLU(m, n, c, rowBias) }},
		}
		for _, tc := range cases {
			got := make([]float32, m*n)
			GemmPacked(m, n, k, a, bp, got, tc.ep, tc.bias)
			want := append([]float32(nil), base...)
			tc.ref(want)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("ep=%d m=%d n=%d k=%d: c[%d]=%v, unfused %v", tc.ep, m, n, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestGemmPackedParallelBitIdentical(t *testing.T) {
	rng := NewRNG(34)
	for _, s := range packedShapes {
		m, n, k := s[0], s[1], s[2]
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		rowBias := make([]float32, m)
		rng.FillUniform(a, -1, 1)
		rng.FillUniform(b, -1, 1)
		rng.FillUniform(rowBias, -1, 1)
		bp := make([]float32, PackedBLen(k, n))
		PackB(k, n, b, bp)
		want := make([]float32, m*n)
		GemmPacked(m, n, k, a, bp, want, EpBiasRowReLU, rowBias)
		for _, workers := range []int{1, 2, 3, 7, 16} {
			got := make([]float32, m*n)
			GemmPackedParallel(workers, m, n, k, a, bp, got, EpBiasRowReLU, rowBias)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("workers=%d m=%d n=%d k=%d: c[%d]=%v, serial %v (must be bit-identical)",
						workers, m, n, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestGemmPackedPanicsOnShortBuffers(t *testing.T) {
	cases := []func(){
		func() { // short A
			GemmPacked(4, 4, 4, make([]float32, 15), make([]float32, PackedBLen(4, 4)), make([]float32, 16), EpNone, nil)
		},
		func() { // short packed B
			GemmPacked(4, 4, 4, make([]float32, 16), make([]float32, 15), make([]float32, 16), EpNone, nil)
		},
		func() { // short C
			GemmPacked(4, 4, 4, make([]float32, 16), make([]float32, PackedBLen(4, 4)), make([]float32, 15), EpNone, nil)
		},
		func() { // short column bias
			GemmPacked(4, 4, 4, make([]float32, 16), make([]float32, PackedBLen(4, 4)), make([]float32, 16), EpBiasCol, make([]float32, 3))
		},
		func() { // short row bias
			GemmPacked(4, 4, 4, make([]float32, 16), make([]float32, PackedBLen(4, 4)), make([]float32, 16), EpBiasRow, make([]float32, 3))
		},
		func() { // short PackB input
			PackB(4, 4, make([]float32, 15), make([]float32, PackedBLen(4, 4)))
		},
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// alexConv1 is the AlexNet conv1 GEMM shape (per sample, no groups):
// OutC=96 rows, 55×55 output positions, 3·11·11 kernel taps.
const (
	alexConv1M = 96
	alexConv1N = 55 * 55
	alexConv1K = 3 * 11 * 11
)

// BenchmarkGemmAlexNetConv1 is the blocked reference kernel on the
// AlexNet conv1 shape — the ablation partner of BenchmarkGemmPacked.
func BenchmarkGemmAlexNetConv1(b *testing.B) {
	rng := NewRNG(35)
	a := make([]float32, alexConv1M*alexConv1K)
	bb := make([]float32, alexConv1K*alexConv1N)
	c := make([]float32, alexConv1M*alexConv1N)
	rng.FillUniform(a, -1, 1)
	rng.FillUniform(bb, -1, 1)
	b.SetBytes(int64(2 * alexConv1M * alexConv1N * alexConv1K * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(alexConv1M, alexConv1N, alexConv1K, 1, a, bb, 0, c)
	}
}

// BenchmarkGemmPacked measures the panel-packed kernel on the AlexNet
// conv1 shape, including the per-call PackB (the conv path repacks the
// im2col matrix every call).
func BenchmarkGemmPacked(b *testing.B) {
	rng := NewRNG(36)
	a := make([]float32, alexConv1M*alexConv1K)
	bb := make([]float32, alexConv1K*alexConv1N)
	bp := make([]float32, PackedBLen(alexConv1K, alexConv1N))
	c := make([]float32, alexConv1M*alexConv1N)
	rng.FillUniform(a, -1, 1)
	rng.FillUniform(bb, -1, 1)
	b.SetBytes(int64(2 * alexConv1M * alexConv1N * alexConv1K * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PackB(alexConv1K, alexConv1N, bb, bp)
		GemmPacked(alexConv1M, alexConv1N, alexConv1K, a, bp, c, EpNone, nil)
	}
}

// BenchmarkGemmPacked256 is the square-shape partner of
// BenchmarkGemm256. B is packed once before the timed loop, so this
// isolates the microkernel; BenchmarkGemmPacked includes the PackB cost
// the conv forward pays per call.
func BenchmarkGemmPacked256(b *testing.B) {
	rng := NewRNG(37)
	n := 256
	a := make([]float32, n*n)
	bb := make([]float32, n*n)
	bp := make([]float32, PackedBLen(n, n))
	c := make([]float32, n*n)
	rng.FillUniform(a, -1, 1)
	rng.FillUniform(bb, -1, 1)
	PackB(n, n, bb, bp)
	b.SetBytes(int64(2 * n * n * n * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmPacked(n, n, n, a, bp, c, EpNone, nil)
	}
}
