package service

import (
	"context"
	"sync"
	"testing"
	"time"

	"djinn/internal/nn"
	"djinn/internal/tensor"
	"djinn/internal/testutil"
)

// inproc registers the tiny test net on an in-process server with the
// given aggregation config; no TCP involved, so these tests exercise
// the aggregator and worker paths directly.
func inproc(t *testing.T, cfg AppConfig) *Server {
	t.Helper()
	testutil.NoLeaks(t)
	s := NewServer()
	s.SetLogger(silence)
	if err := s.Register("tiny", testNet(1), cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// inferN issues n concurrent single-instance queries and blocks until
// every one has a response, failing the test on any error.
func inferN(t *testing.T, s *Server, n int) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := make([]float32, 8)
			in[0] = float32(i)
			out, err := s.Infer("tiny", in)
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			if len(out) != 4 {
				t.Errorf("query %d: %d outputs, want 4", i, len(out))
			}
		}(i)
	}
	wg.Wait()
}

// gateLayer is an identity layer whose forward passes block until the
// test closes release, so a test decides exactly how long the worker
// stays busy. entered receives a token as each forward pass starts.
type gateLayer struct {
	slowLayer
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (l *gateLayer) Forward(ctx *nn.Ctx, in, out *tensor.Tensor) {
	select {
	case l.entered <- struct{}{}:
	default:
	}
	<-l.release
	copy(out.Data(), in.Data())
}

func (l *gateLayer) open() { l.once.Do(func() { close(l.release) }) }

// queueBehindBusyWorker registers the tiny net behind a gate layer on a
// one-worker app with the given batch target, occupies the worker with
// one query, and queues n more single-instance queries behind it. It
// returns once the aggregator holds min(n, target) of them and the rest
// wait in the app queue, so what happens after gate.open is decided by
// the batching policy alone. reqs[0] is the query holding the worker.
func queueBehindBusyWorker(t *testing.T, target, n int) (s *Server, gate *gateLayer, reqs []*request) {
	t.Helper()
	testutil.NoLeaks(t)
	gate = &gateLayer{entered: make(chan struct{}, 64), release: make(chan struct{})}
	s = NewServer()
	s.SetLogger(silence)
	if err := s.Register("tiny", testNet(1).Add(gate), AppConfig{BatchInstances: target, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	t.Cleanup(gate.open) // runs first: a failed test must not wedge Close
	a, _ := s.app("tiny")
	enqueue := func() {
		req := &request{ctx: context.Background(), in: make([]float32, 8), instances: 1,
			enqueued: time.Now(), resp: make(chan result, 1)}
		if err := a.enqueue(req); err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
	}
	enqueue()
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("first query never reached the worker")
	}
	for i := 0; i < n; i++ {
		enqueue()
	}
	// Each receive from reqCh is admitted to the pending batch before the
	// aggregator selects again, so this queue length means pending is
	// exactly min(n, target).
	left := max(n-target, 0)
	for deadline := time.Now().Add(10 * time.Second); len(a.reqCh) != left; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("aggregator left %d queued, want %d", len(a.reqCh), left)
		}
	}
	return s, gate, reqs
}

// awaitAll waits for every request's response and fails on any error.
func awaitAll(t *testing.T, reqs []*request) {
	t.Helper()
	for i, req := range reqs {
		select {
		case res := <-req.resp:
			if res.err != nil || len(res.out) != 4 {
				t.Fatalf("query %d: %d outputs, err %v", i, len(res.out), res.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("query %d never answered", i)
		}
	}
}

// checkBatches asserts every query was served without failures in
// exactly the given number of forward passes.
func checkBatches(t *testing.T, s *Server, queries, batches int64) {
	t.Helper()
	st, _ := s.StatsFor("tiny")
	if st.Queries != queries || st.Instances != queries || st.Batches != batches {
		t.Errorf("queries=%d instances=%d batches=%d, want %d/%d/%d",
			st.Queries, st.Instances, st.Batches, queries, queries, batches)
	}
	if st.Errors != 0 || st.Shed() != 0 || st.Expired != 0 {
		t.Errorf("unexpected failures: %+v", st)
	}
}

// TestBatchesGrowOnlyWhileWorkerBusy: dispatch is work-conserving. The
// first query finds the worker idle and runs alone at once; five more
// that arrive while it runs all ride the next batch together.
func TestBatchesGrowOnlyWhileWorkerBusy(t *testing.T) {
	s, gate, reqs := queueBehindBusyWorker(t, 64, 5)
	gate.open()
	awaitAll(t, reqs)
	checkBatches(t, s, 6, 2)
}

// TestAggregatorFlushPaths pins down how a batch leaves the aggregator:
// capped at the batch target, run to completion by the drain on Close,
// and split into partial batches under concurrent load.
func TestAggregatorFlushPaths(t *testing.T) {
	t.Run("batch-full", func(t *testing.T) {
		// Five queries queue behind a busy worker with a target of 4:
		// the aggregator stops taking from the queue at 4, so the worker
		// runs 1, then 4, then the straggler alone.
		s, gate, reqs := queueBehindBusyWorker(t, 4, 5)
		gate.open()
		awaitAll(t, reqs)
		checkBatches(t, s, 6, 3)
	})
	t.Run("drain-on-close", func(t *testing.T) {
		// Close arrives while three queries are pooled behind a busy
		// worker and far below the target: the batch under assembly
		// must still run to completion rather than fail.
		s, gate, reqs := queueBehindBusyWorker(t, 1000, 3)
		closed := make(chan struct{})
		go func() { defer close(closed); s.Close() }()
		select {
		case <-s.closing: // set after every app's aggregator is told to stop
		case <-time.After(10 * time.Second):
			t.Fatal("Close never began draining")
		}
		gate.open()
		awaitAll(t, reqs)
		<-closed
		checkBatches(t, s, 4, 2)
	})
	t.Run("partial-batch-under-load", func(t *testing.T) {
		// 16 concurrent queries race two workers: batches interleave
		// single queries with whatever queued meanwhile. The exact batch
		// count is timing-dependent; the invariants are not.
		s := inproc(t, AppConfig{BatchInstances: 4, Workers: 2})
		inferN(t, s, 16)
		st, _ := s.StatsFor("tiny")
		if st.Queries != 16 || st.Instances != 16 {
			t.Errorf("queries=%d instances=%d, want 16/16", st.Queries, st.Instances)
		}
		if st.Batches < 4 || st.Batches > 16 {
			t.Errorf("Batches = %d, want in [4, 16]", st.Batches)
		}
		if st.Errors != 0 || st.Shed() != 0 || st.Expired != 0 {
			t.Errorf("unexpected failures: %+v", st)
		}
	})
}

// TestStatsSnapshotNeverTears hammers StatsFor while queries complete
// and checks every snapshot is internally consistent. runBatch bumps
// batches, then instances, then queries; StatsFor loads them in the
// reverse order, so no interleaving can produce Queries > Instances or
// a processed instance with no batch. Before the ordered loads this
// could tear: a snapshot could read instances just before a batch's
// increment and queries just after it.
func TestStatsSnapshotNeverTears(t *testing.T) {
	s := inproc(t, AppConfig{BatchInstances: 3, Workers: 2})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Vary instances per query (1..3) so multi-instance batches
			// widen the window between the instance and query increments.
			in := make([]float32, 8*(w%3+1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Infer("tiny", in); err != nil {
					t.Errorf("infer: %v", err)
					return
				}
			}
		}(w)
	}

	deadline := time.Now().Add(200 * time.Millisecond)
	snapshots := 0
	for time.Now().Before(deadline) {
		st, ok := s.StatsFor("tiny")
		if !ok {
			t.Fatal("no stats for tiny")
		}
		if st.Queries > st.Instances {
			t.Fatalf("torn snapshot: Queries=%d > Instances=%d", st.Queries, st.Instances)
		}
		if st.Instances > 0 && st.Batches == 0 {
			t.Fatalf("torn snapshot: Instances=%d with Batches=0", st.Instances)
		}
		snapshots++
	}
	close(stop)
	wg.Wait()
	if snapshots == 0 {
		t.Fatal("no snapshots taken")
	}
	if st, _ := s.StatsFor("tiny"); st.Queries == 0 {
		t.Fatal("no queries completed during the run")
	}
}
