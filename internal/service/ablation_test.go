package service

import (
	"net"
	"sync"
	"testing"
	"time"
)

// TestAblationFlushPolicy: the batching aggregator's work-conserving
// flush (DESIGN.md §5). A size-only policy would hold a lone query until
// the batch filled, which for a huge target is forever; dispatching to
// the idle worker runs it at once. Conversely, a concurrent burst that
// keeps the worker busy must still form batches rather than run each
// query alone.
func TestAblationFlushPolicy(t *testing.T) {
	// A lone query runs immediately, not after an eternity.
	s := NewServer()
	s.SetLogger(silence)
	defer s.Close()
	if err := s.Register("tiny", testNet(1), AppConfig{
		BatchInstances: 1 << 20, // size threshold never reached
		Workers:        1,
	}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := s.Infer("tiny", make([]float32, 8)); err != nil {
		t.Fatal(err)
	}
	if lone := time.Since(start); lone > 250*time.Millisecond {
		t.Fatalf("lone query took %v; it waited for a batch that cannot fill", lone)
	}

	// A burst of queries still fills batches rather than flushing each
	// query alone. The 1ms forward pass keeps the worker busy long
	// enough for the burst to queue behind it, which is when
	// work-conserving dispatch batches.
	s2 := NewServer()
	s2.SetLogger(silence)
	defer s2.Close()
	if err := s2.Register("slow", slowNet(time.Millisecond), AppConfig{
		BatchInstances: 8,
		Workers:        1,
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s2.Infer("slow", make([]float32, 8))
		}()
	}
	wg.Wait()
	st, _ := s2.StatsFor("slow")
	if st.AvgBatch() < 2 {
		t.Fatalf("burst average batch %.1f; aggregation is not happening", st.AvgBatch())
	}
}

// BenchmarkInfer measures one query's round trip on the tiny test net:
// in-process through Server.Infer, and over loopback TCP through a
// Client. Run with -benchmem to see the per-query allocations.
func BenchmarkInfer(b *testing.B) {
	s := NewServer()
	s.SetLogger(silence)
	defer s.Close()
	if err := s.Register("tiny", testNet(1), AppConfig{BatchInstances: 1, Workers: 1}); err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go s.Serve(l)
	payload := make([]float32, 8)
	b.Run("inproc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Infer("tiny", payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tcp", func(b *testing.B) {
		c, err := Dial(l.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Infer("tiny", payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}
