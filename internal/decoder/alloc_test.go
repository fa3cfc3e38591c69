package decoder

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// roundTrip submits shots against g on a reusable batch, waits, and
// recycles every correction buffer into its shot.
func roundTrip(t *testing.T, pool *Service, g *Graph, b *Batch, shots []Shot) {
	t.Helper()
	if err := pool.ResubmitOn(g, b, shots); err != nil {
		t.Fatal(err)
	}
	for j, corr := range b.Wait() {
		shots[j].CorrBuf = corr[:0]
	}
}

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
	// Warm up: correction buffers and every worker's scratch reach their
	// steady capacity — a worker sizes its arrays on its first span, so
	// the warm-up runs until each has taken one.
	unbound := func(uf *UnionFind) bool { return uf.node == nil }
	for i := 0; i < 8 || slices.ContainsFunc(pool.scratch, unbound); i++ {
		roundTrip(t, pool, g, b, shots)
	}
	if avg := testing.AllocsPerRun(10, func() { roundTrip(t, pool, g, b, shots) }); avg != 0 {
		t.Fatalf("warm ResubmitOn round trip allocates (%.1f allocs/run, want 0)", avg)
	}
}

// TestResubmitAcrossGraphsZeroAllocs: a warm one-worker pool that
// alternates two graphs of different sizes and weights allocates
// nothing — its worker re-binds one UnionFind to each span's graph,
// which grows no array once they fit the larger graph.
func TestResubmitAcrossGraphsZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the zero-alloc pin runs in the non-race CI lane")
	}
	graphs := []*Graph{torusTestGraph(8), weightedTorusGraph(5, func(e int) int32 { return 1 + int32(e%3) })}
	pool := NewPool(1)
	defer pool.Close()
	shots := make([][]Shot, len(graphs))
	batches := make([]*Batch, len(graphs))
	for i, g := range graphs {
		shots[i] = randomShots(g, 16, rand.New(rand.NewPCG(73, uint64(i))))
		batches[i] = NewBatch(len(shots[i]))
	}
	alternate := func() {
		for i, g := range graphs {
			roundTrip(t, pool, g, batches[i], shots[i])
		}
	}
	for range 4 {
		alternate()
	}
	if avg := testing.AllocsPerRun(10, alternate); avg != 0 {
		t.Fatalf("warm round trips alternating two graphs allocate (%.1f allocs/run, want 0)", avg)
	}
}
