package service

import (
	"testing"

	"djinn/internal/testutil"
)

// untracedInferAllocs is the heap allocation count of one untraced
// in-process query at batch 1: the request, its response channel and
// context plumbing in dispatch, the batch slice at assembly, and the
// batch's output array. Tracing must add nothing to it.
const untracedInferAllocs = 5

func TestUntracedInferAllocs(t *testing.T) {
	testutil.NoLeaks(t)
	s := NewServer()
	s.SetLogger(silence)
	defer s.Close()
	if err := s.Register("tiny", testNet(1), AppConfig{BatchInstances: 1, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	in := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	// Warm up past batch ID 255, where boxing an int starts to
	// allocate, so the span note's Sprintf would be caught.
	for i := 0; i < 300; i++ {
		if _, err := s.Infer("tiny", in); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := s.Infer("tiny", in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > untracedInferAllocs {
		t.Fatalf("%v allocs per untraced Infer, want at most %d", allocs, untracedInferAllocs)
	}
}
