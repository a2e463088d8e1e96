package tensor

import (
	"fmt"
	"sync/atomic"
)

// Multi-instance GEMV: the float32 reference kernel behind FC layers.
//
// Gemv run once per instance streams the whole weight matrix once per
// instance. GemvBatch packs four instances' inputs into an [n][4] panel
// and runs a register-tiled kernel over 4 weight rows × 4 instances, so
// each weight row is read once per four instances and every loaded
// weight feeds four multiply lanes.
//
// Numerics: each SIMD lane is one (row, instance) pair and runs exactly
// the float32 operations Gemv runs for that output, in the same order —
// per 4-wide chunk t = p0; t += p1; t += p2; t += p3; sum += t, then
// sum += p per tail element — with separate multiplies and adds (never
// a fused multiply-add). Every output is therefore bit-identical to
// Gemv(m, n, 1, a, x_b, 0, y_b), and because each output is computed by
// exactly one lane or one Gemv call, so is any split across workers.
// The one freedom is a NaN's sign and payload when two NaNs meet in an
// add: IEEE 754 leaves open which one propagates, and the Go compiler
// orders commutative operands as it likes, so a NaN output is NaN in
// both but not necessarily the same NaN.
//
// Leftover instances (batch % 4) and leftover rows (m % 4) run through
// Gemv itself. On amd64 the tile kernel is SSE assembly (every amd64
// CPU has SSE, so there is no feature detection); other targets and the
// purego build tag use gemvPanel4Go, which spells each lane with Gemv's
// expression shape.

// gemvTile is the instance count per panel (and the row count per
// register tile).
const gemvTile = 4

// GemvBatchPanelLen returns the panel scratch length, in float32s, one
// GemvBatch call needs for rows of length n.
func GemvBatchPanelLen(n int) int { return gemvTile * n }

// GemvBatch computes y[b*m+i] = Σ_j a[i*n+j]·x[b*n+j] for every
// instance b < batch and row i < m: batch GEMVs against one row-major
// m×n matrix a. panel is caller-owned scratch of at least
// GemvBatchPanelLen(n) floats. Each output is bit-identical to
// Gemv(m, n, 1, a, x[b*n:], 0, y[b*m:]).
func GemvBatch(m, n, batch int, a, x, y, panel []float32) {
	gemvBatch(m, n, batch, a, x, y, m, panel)
}

// GemvBatchParallel computes the same outputs as GemvBatch with the m
// rows split into contiguous blocks of whole 4-row tiles, one goroutine
// per block. Every worker packs each instance quad into its own panel,
// so panel must hold workers × GemvBatchPanelLen(n) floats. Outputs are
// bit-identical to GemvBatch for any worker count; workers <= 1 runs
// the serial kernel on the calling goroutine with no allocation.
func GemvBatchParallel(workers, m, n, batch int, a, x, y, panel []float32) {
	tiles := (m + gemvTile - 1) / gemvTile
	if workers > tiles {
		workers = tiles
	}
	if workers <= 1 {
		gemvBatch(m, n, batch, a, x, y, m, panel)
		return
	}
	per := GemvBatchPanelLen(n)
	if len(panel) < workers*per {
		panic(fmt.Sprintf("tensor: gemv batch panel %d too small for %d workers × %d", len(panel), workers, per))
	}
	// ParallelRows runs at most one block per worker; each block claims
	// its own panel.
	var slots atomic.Int32
	ParallelRows(workers, tiles, func(lo, hi int) {
		r0, r1 := lo*gemvTile, min(hi*gemvTile, m)
		w := int(slots.Add(1)) - 1
		gemvBatch(r1-r0, n, batch, a[r0*n:r1*n], x, y[r0:], m, panel[w*per:(w+1)*per])
	})
}

// gemvBatch is GemvBatch over m rows whose outputs for instance b start
// at y[b*ldy].
func gemvBatch(m, n, batch int, a, x, y []float32, ldy int, panel []float32) {
	if batch <= 0 || m <= 0 {
		return
	}
	if len(a) < m*n || len(x) < batch*n || len(y) < (batch-1)*ldy+m || len(panel) < GemvBatchPanelLen(n) {
		panic(fmt.Sprintf("tensor: gemv batch buffer too small for m=%d n=%d batch=%d ldy=%d (len a=%d x=%d y=%d panel=%d)",
			m, n, batch, ldy, len(a), len(x), len(y), len(panel)))
	}
	m4 := m &^ (gemvTile - 1)
	b := 0
	for ; b+gemvTile <= batch; b += gemvTile {
		xq := x[b*n : (b+gemvTile)*n]
		yq := y[b*ldy:]
		if m4 > 0 {
			packPanel4(n, xq, panel)
			gemvPanel4(m4, n, a, panel, yq, ldy)
		}
		if m4 < m {
			for i := 0; i < gemvTile; i++ {
				Gemv(m-m4, n, 1, a[m4*n:], xq[i*n:], 0, yq[i*ldy+m4:])
			}
		}
	}
	for ; b < batch; b++ {
		Gemv(m, n, 1, a, x[b*n:], 0, y[b*ldy:])
	}
}

// packPanel4 interleaves four length-n rows of x into panel:
// panel[j*4+i] = x[i*n+j].
func packPanel4(n int, x, panel []float32) {
	x0, x1, x2, x3 := x[:n], x[n:2*n], x[2*n:3*n], x[3*n:4*n]
	p := panel[:4*n]
	for j := range x0 {
		q := p[4*j : 4*j+4 : 4*j+4]
		q[0], q[1], q[2], q[3] = x0[j], x1[j], x2[j], x3[j]
	}
}

// gemvPanel4Go is the portable tile kernel: y[i*ldy+r] = row r of a ·
// instance i of panel, for rows r < rows (a multiple of 4). Each
// accumulator is written with Gemv's exact expression shape so that a
// compiler that fuses multiply-adds fuses them identically in both.
func gemvPanel4Go(rows, n int, a, panel, y []float32, ldy int) {
	p := panel[:4*n]
	for r := 0; r < rows; r++ {
		row := a[r*n : r*n+n]
		var s0, s1, s2, s3 float32
		j := 0
		for ; j+4 <= n; j += 4 {
			q := p[4*j : 4*j+16 : 4*j+16]
			s0 += row[j]*q[0] + row[j+1]*q[4] + row[j+2]*q[8] + row[j+3]*q[12]
			s1 += row[j]*q[1] + row[j+1]*q[5] + row[j+2]*q[9] + row[j+3]*q[13]
			s2 += row[j]*q[2] + row[j+1]*q[6] + row[j+2]*q[10] + row[j+3]*q[14]
			s3 += row[j]*q[3] + row[j+1]*q[7] + row[j+2]*q[11] + row[j+3]*q[15]
		}
		for ; j < n; j++ {
			s0 += row[j] * p[4*j]
			s1 += row[j] * p[4*j+1]
			s2 += row[j] * p[4*j+2]
			s3 += row[j] * p[4*j+3]
		}
		y[r], y[ldy+r], y[2*ldy+r], y[3*ldy+r] = s0, s1, s2, s3
	}
}
