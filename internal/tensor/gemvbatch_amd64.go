//go:build !purego

package tensor

// gemvPanel4 is the SSE tile kernel (gemvbatch_amd64.s): for rows (a
// multiple of 4) rows of the row-major matrix a with row length n, it
// writes y[i*ldy+r] = row r · instance i of the [n][4] panel. It does no
// bounds checking; gemvBatch validates every length first.
//
//go:noescape
func gemvPanel4(rows, n int, a, panel, y []float32, ldy int)
