package workload

import (
	"math"
	"testing"
	"time"

	"djinn/internal/models"
	"djinn/internal/service"
	"djinn/internal/tensor"
	"djinn/internal/testutil"
)

func TestDiurnalShape(t *testing.T) {
	c := Diurnal(0.2, 1.0, time.Minute)
	if got := c(0); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("trough at t=0: %v, want 0.2", got)
	}
	if got := c(30 * time.Second); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("peak at period/2: %v, want 1.0", got)
	}
	if got := c(time.Minute); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("trough at full period: %v, want 0.2", got)
	}
	for d := time.Duration(0); d <= time.Minute; d += time.Second {
		if v := c(d); v < 0.2-1e-9 || v > 1.0+1e-9 {
			t.Fatalf("curve escaped [trough, peak] at %v: %v", d, v)
		}
	}
	// Monotone climb through the morning half.
	if c(10*time.Second) >= c(20*time.Second) {
		t.Fatal("morning half not climbing")
	}
}

func TestSpikeCurve(t *testing.T) {
	c := Spike(1, 5, 100*time.Millisecond, 50*time.Millisecond)
	if got := c(0); got != 1 {
		t.Fatalf("before spike: %v", got)
	}
	if got := c(120 * time.Millisecond); got != 5 {
		t.Fatalf("inside spike: %v", got)
	}
	if got := c(150 * time.Millisecond); got != 1 {
		t.Fatalf("after spike: %v", got)
	}
}

func TestMixDeterministicSplit(t *testing.T) {
	mix := Mix{
		{Name: "imc", Weight: 3, Payload: func(*tensor.RNG) []float32 { return nil }},
		{Name: "asr", Weight: 1, Payload: func(*tensor.RNG) []float32 { return nil }},
	}
	total, err := mix.validate()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for n := 0; n < 100; n++ {
		counts[mix[mix.pick(n, total)].Name]++
	}
	if counts["imc"] != 75 || counts["asr"] != 25 {
		t.Fatalf("100 arrivals split %v, want exact 75/25", counts)
	}
}

func TestMixValidate(t *testing.T) {
	bad := []Mix{
		{},
		{{Name: "", Weight: 1, Payload: func(*tensor.RNG) []float32 { return nil }}},
		{{Name: "a", Weight: 0, Payload: func(*tensor.RNG) []float32 { return nil }}},
		{{Name: "a", Weight: 1}},
		{
			{Name: "a", Weight: 1, Payload: func(*tensor.RNG) []float32 { return nil }},
			{Name: "a", Weight: 1, Payload: func(*tensor.RNG) []float32 { return nil }},
		},
	}
	for i, m := range bad {
		if _, err := m.validate(); err == nil {
			t.Errorf("mix %d validated", i)
		}
	}
}

func TestTonicMixDeterministicOrder(t *testing.T) {
	a := TonicMix(map[models.App]int{models.DIG: 2, models.IMC: 1})
	b := TonicMix(map[models.App]int{models.IMC: 1, models.DIG: 2})
	if len(a) != 2 || len(b) != 2 || a[0].Name != b[0].Name || a[1].Name != b[1].Name {
		t.Fatalf("map-order-dependent mix: %v vs %v", a, b)
	}
}

// TestDriveMixed drives two apps through one server with a diurnal
// curve and checks the aggregate is an exact sum of the per-app slices.
func TestDriveMixed(t *testing.T) {
	testutil.NoLeaks(t)
	s := service.NewServer()
	s.SetLogger(func(string, ...any) {})
	spec := Get(models.DIG)
	cfg := service.AppConfig{
		BatchInstances: spec.BatchSize * spec.Instances,
	}
	for _, name := range []string{"dig-a", "dig-b"} {
		if err := s.Register(name, models.BuildCached(models.DIG), cfg); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(s.Close)

	payload := func(rng *tensor.RNG) []float32 { return QueryPayload(models.DIG, rng) }
	res := DriveMixed(s, Mix{
		{Name: "dig-a", Weight: 3, Payload: payload},
		{Name: "dig-b", Weight: 1, Payload: payload},
	}, 200, Diurnal(0.5, 1.5, 200*time.Millisecond), 8, DriveOptions{
		Duration: 400 * time.Millisecond,
		SLO:      time.Second,
	})

	if res.Total.Errors != 0 {
		t.Fatalf("%d errors: %+v", res.Total.Errors, res.Total)
	}
	if res.Total.Queries < 8 {
		t.Fatalf("only %d queries completed", res.Total.Queries)
	}
	a, b := res.PerApp["dig-a"], res.PerApp["dig-b"]
	if a.Issued() == 0 || b.Issued() == 0 {
		t.Fatalf("an app got no traffic: a=%+v b=%+v", a, b)
	}
	if a.Issued() < b.Issued() {
		t.Fatalf("weight-3 app issued %d < weight-1 app's %d", a.Issued(), b.Issued())
	}
	if got, want := res.Total.Issued(), a.Issued()+b.Issued(); got != want {
		t.Fatalf("aggregate issued %d != per-app sum %d", got, want)
	}
	if got, want := res.Total.Queries, a.Queries+b.Queries; got != want {
		t.Fatalf("aggregate queries %d != per-app sum %d", got, want)
	}
	if got, want := res.Total.SLOMisses, a.SLOMisses+b.SLOMisses; got != want {
		t.Fatalf("aggregate SLO misses %d != per-app sum %d", got, want)
	}
}
