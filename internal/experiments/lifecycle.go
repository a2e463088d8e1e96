package experiments

import (
	"fmt"
	"time"

	"djinn/internal/models"
	"djinn/internal/service"
	"djinn/internal/workload"
)

// RenderLifecycle demonstrates the request lifecycle on the real
// in-process service rather than an analytic model: it loads the DIG
// model, drives it closed-loop at two per-query deadlines, and prints
// the lifecycle counters plus the per-stage latency breakdown the
// server exports through its "stats"/"latency" control verbs. The
// queue-wait column is the server-side overhead invisible before this
// instrumentation existed.
func RenderLifecycle() string {
	out := "Extension: request lifecycle on the live service (DIG, closed loop)\n"
	srv := service.NewServer()
	srv.SetLogger(func(string, ...any) {})
	defer srv.Close()
	spec := workload.Get(models.DIG)
	if err := srv.Register("dig", models.BuildCached(models.DIG), service.AppConfig{
		BatchInstances: spec.BatchSize * spec.Instances,
		Workers:        2,
	}); err != nil {
		return out + err.Error() + "\n"
	}
	t := &table{header: []string{"deadline", "workers", "QPS", "ok", "expired", "shed",
		"queue p50", "assembly p50", "forward p50", "p95 total"}}
	for _, deadline := range []time.Duration{0, 2 * time.Millisecond} {
		res := workload.DriveClosedLoopDeadline(srv, models.DIG, "dig", 8, 400*time.Millisecond, deadline)
		sum, _ := srv.LatencyFor("dig")
		name := "none"
		if deadline > 0 {
			name = deadline.String()
		}
		t.add(name, "8", f1(res.QPS),
			fmt.Sprint(res.Queries), fmt.Sprint(res.Expired), fmt.Sprint(res.Shed),
			sum.QueueWait.P50.Round(time.Microsecond).String(),
			sum.BatchAssembly.P50.Round(time.Microsecond).String(),
			sum.Forward.P50.Round(time.Microsecond).String(),
			res.Latency.P95.Round(time.Microsecond).String())
	}
	out += t.String()
	out += "(a 2ms budget expires queries that a saturated worker pool leaves in the queue;\n" +
		" they are rejected before the forward pass and never occupy a batch slot)\n"
	return out
}
