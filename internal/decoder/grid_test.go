package decoder

import (
	"math/rand/v2"
	"testing"
)

func torusDist1(a, b, l int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if l-d < d {
		d = l - d
	}
	return d
}

// TestGridVisitCoversBall: VisitWithin must enumerate a superset of the
// weighted ball and never visit a point twice.
func TestGridVisitCoversBall(t *testing.T) {
	rng := rand.New(rand.NewPCG(91, 92))
	var g DefectGrid
	for trial := 0; trial < 50; trial++ {
		l := 4 + rng.IntN(20)
		tmax := rng.IntN(12)
		cell := 1 + rng.IntN(4)
		n := 2 + rng.IntN(40)
		xs := make([]int, n)
		ys := make([]int, n)
		ts := make([]int, n)
		g.Reset(l, cell, 0, tmax, 1+rng.IntN(3))
		for i := 0; i < n; i++ {
			xs[i], ys[i], ts[i] = rng.IntN(l), rng.IntN(l), rng.IntN(tmax+1)
			g.Add(xs[i], ys[i], ts[i])
		}
		for probe := 0; probe < 10; probe++ {
			i := rng.IntN(n)
			dxy, dt := rng.IntN(l), rng.IntN(tmax+2)
			seen := make(map[int]int)
			g.VisitWithin(i, dxy, dt, func(j int) { seen[j]++ })
			for j, c := range seen {
				if c > 1 {
					t.Fatalf("trial %d: point %d visited %d times", trial, j, c)
				}
			}
			for j := 0; j < n; j++ {
				inBox := torusDist1(xs[i], xs[j], l) <= dxy &&
					torusDist1(ys[i], ys[j], l) <= dxy &&
					abs(ts[i]-ts[j]) <= dt
				if inBox && seen[j] == 0 {
					t.Fatalf("trial %d: point %d in box of %d (dxy=%d dt=%d) but not visited",
						trial, j, i, dxy, dt)
				}
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestIndexedMatchesDense2D: grid-staged matching on random 2D torus
// defect sets has exactly the dense optimum's total weight — the
// sparse-blossom staging certificate survives the grid index.
func TestIndexedMatchesDense2D(t *testing.T) {
	rng := rand.New(rand.NewPCG(93, 94))
	var mDense, mGrid Matcher
	var grid DefectGrid
	for trial := 0; trial < 60; trial++ {
		l := 8 + rng.IntN(17)
		n := 2 * (2 + rng.IntN(20))
		xs := make([]int, n)
		ys := make([]int, n)
		for i := range xs {
			xs[i], ys[i] = rng.IntN(l), rng.IntN(l)
		}
		weight := func(i, j int) int64 {
			return int64(torusDist1(xs[i], xs[j], l) + torusDist1(ys[i], ys[j], l))
		}
		cutoff := int64(1 + rng.IntN(l))
		grid.Reset(l, int(cutoff), 0, 0, 1)
		for i := range xs {
			grid.Add(xs[i], ys[i], 0)
		}
		near := func(i int, r int64, visit func(j int)) {
			grid.VisitWithin(i, int(r), 0, visit)
		}
		dense := mDense.MinWeightPairs(n, weight)
		indexed := mGrid.MinWeightPairsIndexed(n, weight, cutoff, near)
		var wd, wi int64
		for _, pr := range dense {
			wd += weight(int(pr[0]), int(pr[1]))
		}
		for _, pr := range indexed {
			wi += weight(int(pr[0]), int(pr[1]))
		}
		if len(indexed) != n/2 {
			t.Fatalf("trial %d: %d pairs for %d vertices", trial, len(indexed), n)
		}
		if wd != wi {
			t.Fatalf("trial %d (L=%d n=%d cutoff=%d): grid weight %d != dense %d",
				trial, l, n, cutoff, wi, wd)
		}
	}
}

// TestIndexedMatchesDense3D: the same certificate on weighted
// space-time metrics (wh·d₂ + wv·|Δt|), the volume decoder's staging.
func TestIndexedMatchesDense3D(t *testing.T) {
	rng := rand.New(rand.NewPCG(95, 96))
	var mDense, mGrid Matcher
	var grid DefectGrid
	for trial := 0; trial < 40; trial++ {
		l := 6 + rng.IntN(11)
		tmax := 2 + rng.IntN(10)
		wh := 1 + rng.IntN(4)
		wv := 1 + rng.IntN(6)
		n := 2 * (2 + rng.IntN(16))
		xs := make([]int, n)
		ys := make([]int, n)
		ts := make([]int, n)
		for i := range xs {
			xs[i], ys[i], ts[i] = rng.IntN(l), rng.IntN(l), rng.IntN(tmax+1)
		}
		weight := func(i, j int) int64 {
			d2 := torusDist1(xs[i], xs[j], l) + torusDist1(ys[i], ys[j], l)
			return int64(wh)*int64(d2) + int64(wv)*int64(abs(ts[i]-ts[j]))
		}
		cutoff := int64((1 + rng.IntN(4)) * max(wh, wv))
		grid.Reset(l, 2, 0, tmax, 2)
		for i := range xs {
			grid.Add(xs[i], ys[i], ts[i])
		}
		near := func(i int, r int64, visit func(j int)) {
			grid.VisitWithin(i, int(r/int64(wh)), int(r/int64(wv)), visit)
		}
		dense := mDense.MinWeightPairs(n, weight)
		indexed := mGrid.MinWeightPairsIndexed(n, weight, cutoff, near)
		var wd, wi int64
		for _, pr := range dense {
			wd += weight(int(pr[0]), int(pr[1]))
		}
		for _, pr := range indexed {
			wi += weight(int(pr[0]), int(pr[1]))
		}
		if wd != wi {
			t.Fatalf("trial %d (L=%d T=%d wh=%d wv=%d n=%d cutoff=%d): grid weight %d != dense %d",
				trial, l, tmax, wh, wv, n, cutoff, wi, wd)
		}
	}
}

// TestIndexedDeterministic: repeat runs emit identical pairings, and the
// matcher recycles cleanly across calls with different enumerators.
func TestIndexedDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(97, 98))
	var m Matcher
	var grid DefectGrid
	l, n := 12, 24
	xs := make([]int, n)
	ys := make([]int, n)
	for i := range xs {
		xs[i], ys[i] = rng.IntN(l), rng.IntN(l)
	}
	weight := func(i, j int) int64 {
		return int64(torusDist1(xs[i], xs[j], l) + torusDist1(ys[i], ys[j], l))
	}
	near := func(i int, r int64, visit func(j int)) {
		grid.VisitWithin(i, int(r), 0, visit)
	}
	run := func() [][2]int32 {
		grid.Reset(l, 3, 0, 0, 1)
		for i := range xs {
			grid.Add(xs[i], ys[i], 0)
		}
		pairs := m.MinWeightPairsIndexed(n, weight, 3, near)
		out := make([][2]int32, len(pairs))
		copy(out, pairs)
		return out
	}
	a := run()
	m.MinWeightPairs(6, func(i, j int) int64 { return int64(i + j) }) // perturb scratch
	b := run()
	if len(a) != len(b) {
		t.Fatal("repeat runs differ in pair count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("repeat runs differ at pair %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// BenchmarkSparsePairStaging pits dense candidate enumeration
// (all-pairs) against the grid index on large defect sets — the
// ~O(n²) → ~O(n·k) satellite. The enumerate-* variants isolate the
// staging sweep the index accelerates; the solve-* variants run the
// full matcher (identical minimum weight) and show the blossom engine
// dominating end to end at this size.
func BenchmarkSparsePairStaging(b *testing.B) {
	rng := rand.New(rand.NewPCG(99, 100))
	const l, n = 128, 2048
	xs := make([]int, n)
	ys := make([]int, n)
	for i := range xs {
		xs[i], ys[i] = rng.IntN(l), rng.IntN(l)
	}
	weight := func(i, j int) int64 {
		return int64(torusDist1(xs[i], xs[j], l) + torusDist1(ys[i], ys[j], l))
	}
	const cutoff = 9
	var grid DefectGrid
	buildGrid := func() {
		grid.Reset(l, cutoff, 0, 0, 1)
		for k := range xs {
			grid.Add(xs[k], ys[k], 0)
		}
	}
	near := func(i int, r int64, visit func(j int)) {
		grid.VisitWithin(i, int(r), 0, visit)
	}
	b.Run("enumerate-dense", func(b *testing.B) {
		staged := 0
		for it := 0; it < b.N; it++ {
			staged = 0
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if weight(i, j) <= cutoff {
						staged++
					}
				}
			}
		}
		b.ReportMetric(float64(staged), "edges")
	})
	b.Run("enumerate-grid", func(b *testing.B) {
		staged := 0
		for it := 0; it < b.N; it++ {
			staged = 0
			buildGrid()
			for i := 0; i < n; i++ {
				near(i, cutoff, func(j int) {
					if j > i && weight(i, j) <= cutoff {
						staged++
					}
				})
			}
		}
		b.ReportMetric(float64(staged), "edges")
	})
	b.Run("solve-dense", func(b *testing.B) {
		var m Matcher
		for i := 0; i < b.N; i++ {
			m.MinWeightPairsIndexed(n, weight, cutoff, allPairs(n))
		}
	})
	b.Run("solve-grid", func(b *testing.B) {
		var m Matcher
		for i := 0; i < b.N; i++ {
			buildGrid()
			m.MinWeightPairsIndexed(n, weight, cutoff, near)
		}
	})
}
