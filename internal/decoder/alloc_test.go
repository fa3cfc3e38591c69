package decoder

import (
	"math/rand/v2"
	"testing"
)

// TestResubmitZeroAllocs pins the streaming hot path's allocation
// contract at the pool itself: a warmed ResubmitOn round trip of a
// reusable batch — submit, wait, recycle every correction buffer —
// performs zero heap allocations. This is what lets a server run
// thousands of session slides per second without feeding the GC.
func TestResubmitZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the zero-alloc pin runs in the non-race CI lane")
	}
	g := torusTestGraph(6)
	pool := NewPool(2)
	defer pool.Close()
	shots := randomShots(g, 24, rand.New(rand.NewPCG(71, 72)))
	b := NewBatch(len(shots))
	roundTrip := func() {
		if err := pool.ResubmitOn(g, b, shots); err != nil {
			t.Fatal(err)
		}
		for j, corr := range b.Wait() {
			shots[j].CorrBuf = corr[:0]
		}
	}
	// Warm up: correction buffers and the workers' scratch on the graph
	// reach their steady capacity.
	for i := 0; i < 8; i++ {
		roundTrip()
	}
	if avg := testing.AllocsPerRun(10, roundTrip); avg != 0 {
		t.Fatalf("warm ResubmitOn round trip allocates (%.1f allocs/run, want 0)", avg)
	}
}
