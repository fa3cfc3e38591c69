package decoder

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"
	"weak"
)

// torusTestGraph is a small unit-weight toric-like grid (wrapping in
// both directions) for service tests: node (x,y) on an n×n torus,
// horizontal and vertical edges.
func torusTestGraph(n int) *Graph {
	idx := func(x, y int) int32 { return int32((y%n)*n + x%n) }
	var ends [][2]int32
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			ends = append(ends, [2]int32{idx(x, y), idx(x+1, y)})
			ends = append(ends, [2]int32{idx(x, y), idx(x, y+1)})
		}
	}
	return NewGraph(n*n, ends, nil, nil)
}

// randomShots builds valid defect sets (syndromes of random edge
// patterns) plus occasional erasure lists.
func randomShots(g *Graph, count int, rng *rand.Rand) []Shot {
	shots := make([]Shot, count)
	for s := range shots {
		par := make([]bool, g.Nodes())
		var erased []int
		for e := 0; e < g.Edges(); e++ {
			if rng.Float64() < 0.08 {
				a, b := g.Ends(e)
				par[a] = !par[a]
				par[b] = !par[b]
			}
			if rng.Float64() < 0.03 {
				erased = append(erased, e)
			}
		}
		var defects []int
		for v, p := range par {
			if p {
				defects = append(defects, v)
			}
		}
		if s%3 == 0 {
			shots[s] = Shot{Defects: defects, Erased: erased}
		} else {
			shots[s] = Shot{Defects: defects}
		}
	}
	return shots
}

// mustDecode is one round trip of a reusable batch — the path stream,
// server and the benchmark run — failing the test on a submission
// error, for tests where the pool is known to be open.
func mustDecode(t *testing.T, pool *Service, g *Graph, b *Batch, shots []Shot) [][]int32 {
	t.Helper()
	if err := pool.ResubmitOn(g, b, shots); err != nil {
		t.Fatalf("ResubmitOn on open pool: %v", err)
	}
	return b.Wait()
}

// diffDirect compares a batch's output against what a private UnionFind
// emits for every shot, in order; nil means bit-identical.
func diffDirect(g *Graph, shots []Shot, got [][]int32) error {
	if len(got) != len(shots) {
		return fmt.Errorf("%d results for %d shots", len(got), len(shots))
	}
	uf := NewUnionFind(g)
	for i, shot := range shots {
		want := uf.AppendCorrection(nil, shot.Defects, shot.Erased)
		if len(got[i]) != len(want) {
			return fmt.Errorf("shot %d: %d edges, want %d", i, len(got[i]), len(want))
		}
		for k := range want {
			if got[i][k] != want[k] {
				return fmt.Errorf("shot %d: edge %d is %d, want %d", i, k, got[i][k], want[k])
			}
		}
	}
	return nil
}

// TestServiceMatchesDirectDecode: the pool must return exactly what a
// private UnionFind emits for every shot, in order.
func TestServiceMatchesDirectDecode(t *testing.T) {
	g := torusTestGraph(6)
	rng := rand.New(rand.NewPCG(81, 82))
	shots := randomShots(g, 137, rng)
	pool := NewPool(3)
	defer pool.Close()
	got := mustDecode(t, pool, g, NewBatch(len(shots)), shots)
	if err := diffDirect(g, shots, got); err != nil {
		t.Fatal(err)
	}
}

// TestServiceWorkerCountInvariant: any pool size produces bit-identical
// corrections.
func TestServiceWorkerCountInvariant(t *testing.T) {
	g := torusTestGraph(5)
	rng := rand.New(rand.NewPCG(83, 84))
	shots := randomShots(g, 200, rng)
	var ref [][]int32
	for _, workers := range []int{1, 2, 7, 16} {
		pool := NewPool(workers)
		out := mustDecode(t, pool, g, NewBatch(len(shots)), shots)
		pool.Close()
		if ref == nil {
			ref = out
			continue
		}
		for i := range ref {
			if len(out[i]) != len(ref[i]) {
				t.Fatalf("workers=%d shot %d: edge count differs", workers, i)
			}
			for k := range ref[i] {
				if out[i][k] != ref[i][k] {
					t.Fatalf("workers=%d shot %d: edge %d differs", workers, i, k)
				}
			}
		}
	}
}

// TestServiceGrow: a pool grown between batches decodes on the added
// workers with the same corrections, never shrinks, and a closed pool
// starts none.
func TestServiceGrow(t *testing.T) {
	g := torusTestGraph(5)
	shots := randomShots(g, 120, rand.New(rand.NewPCG(89, 90)))
	pool := NewPool(1)
	b := NewBatch(len(shots))
	for _, step := range []struct{ n, want int }{{1, 1}, {6, 6}, {3, 6}} {
		n := step.n
		if got := pool.Grow(n); got != step.want {
			t.Fatalf("Grow(%d) left %d workers, want %d", n, got, step.want)
		}
		if err := diffDirect(g, shots, mustDecode(t, pool, g, b, shots)); err != nil {
			t.Fatalf("after Grow(%d): %v", n, err)
		}
	}
	pool.Close()
	if got := pool.Grow(10); got != 6 {
		t.Fatalf("Grow on a closed pool: %d workers, want 6", got)
	}
}

// TestServiceConcurrentSubmitters: many goroutines sharing one pool,
// each with its own reusable batch, each get their own batch's
// deterministic answer (also the race-mode smoke for the worker pool).
func TestServiceConcurrentSubmitters(t *testing.T) {
	g := torusTestGraph(6)
	pool := NewPool(4)
	defer pool.Close()
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(85, uint64(c)))
			shots := randomShots(g, 64, rng)
			b := NewBatch(len(shots))
			if err := pool.ResubmitOn(g, b, shots); err != nil {
				t.Errorf("submitter %d: %v", c, err)
				return
			}
			if err := diffDirect(g, shots, b.Wait()); err != nil {
				t.Errorf("submitter %d: %v", c, err)
			}
		}(c)
	}
	wg.Wait()
}

// TestServiceEmptyBatch: zero shots complete immediately.
func TestServiceEmptyBatch(t *testing.T) {
	g := torusTestGraph(4)
	pool := NewPool(2)
	defer pool.Close()
	b := NewBatch(2)
	if out := mustDecode(t, pool, g, b, nil); len(out) != 0 {
		t.Fatalf("empty batch returned %d results", len(out))
	}
	if out := mustDecode(t, pool, g, b, []Shot{{}, {}}); len(out) != 2 || out[0] != nil || out[1] != nil {
		t.Fatalf("empty shots must decode to empty corrections, got %v", out)
	}
}

// TestServiceResubmitChangingShotCount: one batch resubmitted twenty
// times with a shot count that shrinks, grows past the batch's capacity
// (the output slots regrow) and hits zero, recycling each correction
// buffer, matches the direct decode every time.
func TestServiceResubmitChangingShotCount(t *testing.T) {
	g := torusTestGraph(6)
	pool := NewPool(3)
	defer pool.Close()
	rng := rand.New(rand.NewPCG(93, 94))
	all := randomShots(g, 96, rng)
	b := NewBatch(8)
	counts := []int{8, 3, 17, 1, 40, 0, 40, 96, 5, 64}
	for i := 0; i < 20; i++ {
		shots := all[:counts[i%len(counts)]]
		out := mustDecode(t, pool, g, b, shots)
		if err := diffDirect(g, shots, out); err != nil {
			t.Fatalf("resubmit %d (%d shots): %v", i, len(shots), err)
		}
		for j := range out {
			shots[j].CorrBuf = out[j][:0]
		}
	}
}

// TestServiceLifecycle is the regression test for the closed-channel
// panics: ResubmitOn after Close returns ErrClosed (never panics), and
// Close is idempotent from any number of goroutines.
func TestServiceLifecycle(t *testing.T) {
	g := torusTestGraph(4)
	rng := rand.New(rand.NewPCG(87, 88))
	shots := randomShots(g, 16, rng)

	pool := NewPool(2)
	b := NewBatch(len(shots))
	mustDecode(t, pool, g, b, shots)
	pool.Close()
	pool.Close() // double-Close must be a no-op
	if err := pool.ResubmitOn(g, b, shots); !errors.Is(err, ErrClosed) {
		t.Fatalf("ResubmitOn after Close: err = %v, want ErrClosed", err)
	}
	if err := pool.ResubmitOn(g, b, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("empty ResubmitOn after Close: err = %v, want ErrClosed", err)
	}

	// Concurrent closers racing each other must all return cleanly.
	pool2 := NewPool(2)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() { defer wg.Done(); pool2.Close() }()
	}
	wg.Wait()
}

// TestServiceSubmitCloseChurn races submitters against Close under the
// race detector: every ResubmitOn either completes with a full answer
// or returns ErrClosed — no panics, no lost batches.
func TestServiceSubmitCloseChurn(t *testing.T) {
	g := torusTestGraph(5)
	for trial := 0; trial < 6; trial++ {
		pool := NewPool(3)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for c := 0; c < 6; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(89, uint64(16*trial+c)))
				shots := randomShots(g, 32, rng)
				b := NewBatch(len(shots))
				<-start
				for i := 0; i < 20; i++ {
					if err := pool.ResubmitOn(g, b, shots); err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("submitter %d: unexpected error %v", c, err)
						}
						return
					}
					out := b.Wait()
					if len(out) != len(shots) {
						t.Errorf("submitter %d: accepted batch returned %d/%d results", c, len(out), len(shots))
						return
					}
				}
			}(c)
		}
		close(start)
		pool.Close()
		wg.Wait()
	}
}

// TestPoolMultiGraph: one pool serves several graphs at once, two pools
// decode on one graph at once (each worker re-binding its one scratch to
// every span's graph), and every batch matches its graph's direct decode
// regardless of the interleaving.
func TestPoolMultiGraph(t *testing.T) {
	graphs := []*Graph{torusTestGraph(4), torusTestGraph(5), torusTestGraph(6)}
	pools := []*Service{NewPool(4), NewPool(2)}
	for _, pool := range pools {
		defer pool.Close()
	}
	if err := pools[0].ResubmitOn(nil, NewBatch(0), nil); err == nil {
		t.Fatalf("submission without a graph must error")
	}
	var wg sync.WaitGroup
	for c := 0; c < 12; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g, pool := graphs[c%len(graphs)], pools[c%len(pools)]
			rng := rand.New(rand.NewPCG(91, uint64(c)))
			shots := randomShots(g, 48, rng)
			b := NewBatch(len(shots))
			if err := pool.ResubmitOn(g, b, shots); err != nil {
				t.Errorf("session %d: %v", c, err)
				return
			}
			if err := diffDirect(g, shots, b.Wait()); err != nil {
				t.Errorf("session %d: %v", c, err)
			}
		}(c)
	}
	wg.Wait()
}

// TestPoolsGetDistinctScratch: two pools decoding one graph at once
// hold one UnionFind per worker each — n distinct instances for n
// workers, none shared across the pools — and, with every batch done, no
// instance holds the graph (the race detector watches the concurrent
// decodes).
func TestPoolsGetDistinctScratch(t *testing.T) {
	g := torusTestGraph(6)
	pools := []*Service{NewPool(3), NewPool(2)}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			shots := randomShots(g, 40, rand.New(rand.NewPCG(95, uint64(c))))
			b := NewBatch(len(shots))
			for i := 0; i < 3; i++ {
				if err := pools[c%2].ResubmitOn(g, b, shots); err != nil {
					t.Errorf("submitter %d: %v", c, err)
					return
				}
				if err := diffDirect(g, shots, b.Wait()); err != nil {
					t.Errorf("submitter %d: %v", c, err)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, pool := range pools {
		pool.Close()
	}
	seen := map[*UnionFind]bool{}
	for i, pool := range pools {
		if n := []int{3, 2}[i]; len(pool.scratch) != n {
			t.Fatalf("pool %d: %d scratch instances for %d workers", i, len(pool.scratch), n)
		}
		for _, uf := range pool.scratch {
			if seen[uf] {
				t.Fatalf("pool %d shares a UnionFind", i)
			}
			seen[uf] = true
			if uf.g != nil {
				t.Fatalf("pool %d: an idle worker's scratch still holds its last graph", i)
			}
		}
	}
}

// TestGrowWithQueuedSpans: workers that Grow starts while a batch's spans
// are still queued decode them, each on its own new UnionFind, and the
// batch equals a one-worker pool's decode.
func TestGrowWithQueuedSpans(t *testing.T) {
	g := torusTestGraph(6)
	shots := randomShots(g, 64, rand.New(rand.NewPCG(97, 98)))
	ref := NewPool(1)
	want := mustDecode(t, ref, g, NewBatch(len(shots)), shots)
	ref.Close()

	pool := NewPool(1)
	defer pool.Close()
	// Park the one worker: a batch whose completion token nobody has
	// taken blocks the worker that completes it again.
	park := NewBatch(1)
	for _, sub := range [][]Shot{nil, shots[:1]} {
		if err := pool.ResubmitOn(g, park, sub); err != nil {
			t.Fatal(err)
		}
	}
	for len(pool.tasks) > 0 {
		runtime.Gosched()
	}
	b := NewBatch(len(shots))
	if err := pool.ResubmitOn(g, b, shots); err != nil {
		t.Fatal(err)
	}
	if len(pool.scratch) != 1 || len(pool.tasks) == 0 {
		t.Fatalf("degenerate: %d workers, %d spans queued", len(pool.scratch), len(pool.tasks))
	}
	pool.Grow(4)
	got := b.Wait()
	park.Wait()
	park.Wait()
	// The first worker was parked, so the new ones decoded every span.
	if !slices.ContainsFunc(pool.scratch[1:], func(uf *UnionFind) bool { return len(uf.node) == g.Nodes() }) {
		t.Fatal("degenerate: no worker that Grow started decoded on its own scratch")
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("shot %d: grown pool gave %v, one-worker pool %v", i, got[i], want[i])
		}
	}
}

// TestDecodedGraphIsCollected: a graph a long-lived pool has decoded on
// is garbage once nothing else holds it — a worker's scratch keeps its
// arrays between spans, never the graph.
func TestDecodedGraphIsCollected(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	wp := func() weak.Pointer[Graph] {
		g := torusTestGraph(6)
		shots := randomShots(g, 32, rand.New(rand.NewPCG(99, 100)))
		mustDecode(t, pool, g, NewBatch(len(shots)), shots)
		return weak.Make(g)
	}()
	for i := 0; i < 4 && wp.Value() != nil; i++ {
		runtime.GC()
	}
	if wp.Value() != nil {
		t.Fatal("a dropped graph outlives its decodes on a long-lived pool")
	}
}

// PoolScratch returns the pool's UnionFind of each worker id, for tests
// outside the package; read it only while no batch is in flight.
func PoolScratch(s *Service) []*UnionFind { return s.scratch }

// ScratchNodes returns how many node records u holds.
func ScratchNodes(u *UnionFind) int { return len(u.node) }
