//go:build !amd64 || purego

package tensor

func gemvPanel4(rows, n int, a, panel, y []float32, ldy int) {
	gemvPanel4Go(rows, n, a, panel, y, ldy)
}
