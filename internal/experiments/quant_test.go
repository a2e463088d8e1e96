package experiments

import (
	"testing"
	"time"

	"djinn/internal/models"
)

func TestQuantSweepSmoke(t *testing.T) {
	apps := []models.App{models.DIG, models.POS}
	batches := []int{1, 2}
	cfg := QuantConfig{Apps: apps, Batches: batches, Workers: 1, MinTime: time.Millisecond}
	cells := QuantSweep(cfg)
	if len(cells) != len(apps)*len(batches) {
		t.Fatalf("got %d cells, want %d", len(cells), len(apps)*len(batches))
	}
	agreeBatches := cfg.withDefaults().AgreeBatches
	for i, c := range cells {
		app, batch := apps[i/len(batches)], batches[i%len(batches)]
		if c.App != app.String() || c.Batch != batch {
			t.Fatalf("cell %d is %s batch=%d, want %s batch=%d", i, c.App, c.Batch, app, batch)
		}
		if c.F32QPS <= 0 || c.Int8QPS <= 0 {
			t.Errorf("%s batch=%d: non-positive throughput (f32 %.1f, int8 %.1f)", c.App, c.Batch, c.F32QPS, c.Int8QPS)
		}
		if c.F32Allocs >= 1 || c.Int8Allocs >= 1 {
			t.Errorf("%s batch=%d: %.1f f32 / %.1f int8 allocs per forward at 1 worker, want < 1", c.App, c.Batch, c.F32Allocs, c.Int8Allocs)
		}
		if c.Compared != batch*agreeBatches {
			t.Errorf("%s batch=%d: compared %d instances, want %d", c.App, c.Batch, c.Compared, batch*agreeBatches)
		}
		if c.Agreement < 0 || c.Agreement > 1 {
			t.Errorf("%s batch=%d: agreement %v outside [0,1]", c.App, c.Batch, c.Agreement)
		}
	}
}
