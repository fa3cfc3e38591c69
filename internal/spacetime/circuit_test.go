package spacetime

import (
	"math"
	"runtime"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/decoder"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// TestCircuitVolumeShape: the diagonal-edge volume carries the three
// edge classes with the documented id layout, the diagonals follow the
// schedule's {late, early} reader pairs one layer apart, and every edge
// projects to the right data qubit.
func TestCircuitVolumeShape(t *testing.T) {
	const l, rounds = 4, 3
	const wh, wv, wd = 2, 1, 3
	v := NewVolume(toric.Cached(l), rounds, wh, wv, wd)
	nc, nq := l*l, 2*l*l
	if got, want := v.Graph().Edges(), rounds*(2*nq+nc); got != want {
		t.Fatalf("edge count %d, want %d", got, want)
	}
	// projected is the set of data qubits one correction edge flips.
	projected := func(id int) []int {
		corr := bits.NewVec(nq)
		v.project([]int32{int32(id)}, corr)
		return corr.Support()
	}
	sch := toric.Cached(l).ExtractionSchedule()
	for _, sector := range []struct {
		g    *decoder.Graph
		diag [][2]int32
	}{{v.Graph(), sch.DiagX}, {v.DualGraph(), sch.DiagZ}} {
		for tl := 0; tl < rounds; tl++ {
			for e := 0; e < nq; e++ {
				id := v.diagOff + tl*nq + e
				a, b := sector.g.Ends(id)
				if sector.g.Weight(id) != wd {
					t.Fatalf("diagonal %d weight %d", id, sector.g.Weight(id))
				}
				if a != tl*nc+int(sector.diag[e][0]) || b != (tl+1)*nc+int(sector.diag[e][1]) {
					t.Fatalf("diagonal %d joins %d,%d; want late %d@%d → early %d@%d",
						id, a, b, sector.diag[e][0], tl, sector.diag[e][1], tl+1)
				}
				if q := projected(id); len(q) != 1 || q[0] != e {
					t.Fatalf("diagonal %d projects to %v, want [%d]", id, q, e)
				}
			}
		}
	}
	for e := 0; e < v.horiz; e++ {
		if q := projected(e); len(q) != 1 || q[0] != e%nq {
			t.Fatalf("horizontal %d projects to %v", e, q)
		}
	}
	for e := v.horiz; e < v.diagOff; e++ {
		if q := projected(e); len(q) != 0 {
			t.Fatalf("vertical %d must project away, flips %v", e, q)
		}
	}
}

// TestWeightsCircuit: the three-class weights order by likelihood
// (diagonal rarest, vertical likeliest under uniform noise), respect
// the detour caps, and are gcd-normalized.
func TestWeightsCircuit(t *testing.T) {
	for _, eps := range []float64{1e-4, 1e-3, 1e-2} {
		wh, wv, wd := WeightsCircuit(noise.Uniform(eps), 8, 8)
		if wh < 1 || wv < 1 || wd < 1 {
			t.Fatalf("eps=%v: nonpositive weight (%d,%d,%d)", eps, wh, wv, wd)
		}
		if !(wv <= wh && wh <= wd) {
			t.Fatalf("eps=%v: want wv ≤ wh ≤ wd, got (%d,%d,%d)", eps, wh, wv, wd)
		}
		if wd > wh+wv+1 {
			t.Fatalf("eps=%v: diagonal cap violated (%d,%d,%d)", eps, wh, wv, wd)
		}
		if g := gcd(gcd(wh, wv), wd); g != 1 {
			t.Fatalf("eps=%v: weights (%d,%d,%d) share factor %d", eps, wh, wv, wd, g)
		}
	}
	// Degenerate channels stay finite and positive.
	if wh, wv, wd := WeightsCircuit(noise.Params{Storage: 0.01}, 4, 4); wh < 1 || wv < 1 || wd < 1 {
		t.Fatalf("storage-only weights (%d,%d,%d)", wh, wv, wd)
	}
	if wh, wv, wd := WeightsCircuit(noise.Params{Meas: 0.01}, 4, 4); wh < 1 || wv < 1 || wd < 1 {
		t.Fatalf("meas-only weights (%d,%d,%d)", wh, wv, wd)
	}
}

// TestCircuitMetricMatchesGraph: the offset table the exact matcher
// prices with must equal true shortest-path distances on the built
// diagonal-edge graph in the volume's interior (reference Dijkstra from
// a middle layer of a taller volume — like the rectilinear metric of
// the plain volume, the table idealizes away the closing layer's
// missing horizontal edges), for every offset it covers, both sectors.
func TestCircuitMetricMatchesGraph(t *testing.T) {
	const l, rounds = 3, 2
	const tall, mid = 6, 3
	wh, wv, wd := WeightsCircuit(noise.Uniform(2e-3), l, rounds)
	v := NewVolume(toric.Cached(l), rounds, wh, wv, wd)
	ref := NewVolume(toric.Cached(l), tall, wh, wv, wd)
	nc := l * l
	span := 2*rounds + 1
	distX, distZ := v.metric()
	for _, sector := range []struct {
		dist []int64
		dual bool
	}{{distX, false}, {distZ, true}} {
		g := ref.graphX
		if sector.dual {
			g = ref.graphZ
		}
		for ca := 0; ca < nc; ca++ {
			dist := dijkstraRef(g.Nodes(), g.Edges(), g.Ends, g.Weight, mid*nc+ca)
			for dt := -rounds; dt <= rounds; dt++ {
				for cb := 0; cb < nc; cb++ {
					dx := mod(cb%l-ca%l, l)
					dy := mod(cb/l-ca/l, l)
					got := sector.dist[(dy*l+dx)*span+dt+rounds]
					if want := dist[(mid+dt)*nc+cb]; got != want {
						t.Fatalf("dual=%v check %d→%d dt=%d: metric table %d, graph distance %d",
							sector.dual, ca, cb, dt, got, want)
					}
				}
			}
		}
	}
}

// dijkstraRef is a straightforward O(V²) Dijkstra over an edge list.
func dijkstraRef(nodes, edges int, ends func(int) (int, int), weight func(int) int, src int) []int64 {
	adj := make([][][2]int, nodes) // (neighbor, weight)
	for e := 0; e < edges; e++ {
		a, b := ends(e)
		w := weight(e)
		adj[a] = append(adj[a], [2]int{b, w})
		adj[b] = append(adj[b], [2]int{a, w})
	}
	const inf = int64(1) << 60
	dist := make([]int64, nodes)
	done := make([]bool, nodes)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	for {
		u, best := -1, inf
		for i, d := range dist {
			if !done[i] && d < best {
				u, best = i, d
			}
		}
		if u < 0 {
			return dist
		}
		done[u] = true
		for _, nb := range adj[u] {
			if d := best + int64(nb[1]); d < dist[nb[0]] {
				dist[nb[0]] = d
			}
		}
	}
}

// TestCircuitMeasOnlyIsFailureFree pins the strict reading of the
// equivalence satellite: with every fault location disabled except the
// measurement flip, no data qubit is ever damaged, so the circuit
// pipeline must report exactly zero logical failures — just like the
// phenomenological model at p = 0.
func TestCircuitMeasOnlyIsFailureFree(t *testing.T) {
	r := toricCircuitMemory(4, 4, noise.Params{Meas: 0.08}, toric.DecoderUnionFind, 2000, 31)
	if r.Failures != 0 || r.FailX != 0 || r.FailZ != 0 {
		t.Fatalf("meas-only circuit produced failures: %+v", r)
	}
	ph := toricMemory(4, 4, 0, 0.08, toric.DecoderUnionFind, 2000, 32)
	if ph.Failures != 0 {
		t.Fatalf("meas-only phenomenological model produced failures: %+v", ph)
	}
}

// TestCircuitReducesToPhenomenological is the equivalence satellite's
// statistical form: with only the storage and measurement channels on,
// the extraction circuit IS the phenomenological model — the idle step
// flips each data qubit's sector component with probability 2/3·Storage
// before any read (no propagation, no mid-round timing), and each check
// measurement flips independently with probability Meas. Decoded over
// the same phenomenological volume, the per-sector failure rates must
// agree within statistical error (same L, T, lanes discipline).
func TestCircuitReducesToPhenomenological(t *testing.T) {
	const (
		l, rounds = 4, 4
		storage   = 0.045
		q         = 0.03
		samples   = 6000
	)
	p := 2.0 / 3.0 * storage
	v := phenomVolume(toric.Cached(l), rounds, p, q)
	P := noise.Params{Storage: storage, Meas: q}
	fx, fz, _ := frame.CountSectorFailures(samples, 33, func(lanes int, smp frame.Sampler) (bits.Vec, bits.Vec) {
		return v.BatchMemoryFrom(surface.NewCircuitSource(toric.Cached(l), P, lanes, smp), toric.DecoderUnionFind, DecodeOptions{})
	})
	ref := toricMemory(l, rounds, p, q, toric.DecoderUnionFind, samples, 34)
	for _, s := range []struct {
		name      string
		got, want float64
	}{
		{"X", float64(fx) / samples, ref.FailRateX()},
		{"Z", float64(fz) / samples, ref.FailRateZ()},
	} {
		sigma := math.Sqrt(s.got*(1-s.got)/samples + s.want*(1-s.want)/samples)
		if diff := math.Abs(s.got - s.want); diff > 4*sigma+0.015 {
			t.Fatalf("sector %s: circuit %.4f vs phenomenological %.4f (diff %.4f > %.4f)",
				s.name, s.got, s.want, diff, 4*sigma+0.015)
		}
	}
}

// TestCircuitMemoryDeterministicAndGOMAXPROCSInvariant: the circuit
// Monte Carlo is a pure function of (samples, seed).
func TestCircuitMemoryDeterministicAndGOMAXPROCSInvariant(t *testing.T) {
	run := func() Result {
		return toricCircuitMemory(4, 4, noise.Uniform(0.004), toric.DecoderUnionFind, 900, 35)
	}
	a := run()
	if b := run(); a != b {
		t.Fatalf("same seed, different results: %+v vs %+v", a, b)
	}
	old := runtime.GOMAXPROCS(1)
	serial := run()
	runtime.GOMAXPROCS(8)
	parallel := run()
	runtime.GOMAXPROCS(old)
	if serial != parallel {
		t.Fatalf("result depends on GOMAXPROCS: 1 → %+v, 8 → %+v", serial, parallel)
	}
}

// TestCircuitUnionFindMatchesExact: on the diagonal-edge volume the
// weighted union-find failure rate tracks the circuit-metric blossom
// matcher within statistical error.
func TestCircuitUnionFindMatchesExact(t *testing.T) {
	const samples = 3000
	P := noise.Uniform(0.006)
	uf := toricCircuitMemory(4, 4, P, toric.DecoderUnionFind, samples, 36)
	ex := toricCircuitMemory(4, 4, P, toric.DecoderExact, samples, 36)
	fu, fe := uf.FailRate(), ex.FailRate()
	sigma := math.Sqrt(fu*(1-fu)/samples + fe*(1-fe)/samples)
	if diff := math.Abs(fu - fe); diff > 4*sigma+0.02 {
		t.Fatalf("union-find %.4f vs exact %.4f (diff %.4f > %.4f)", fu, fe, diff, 4*sigma+0.02)
	}
	if fe > fu+4*sigma+0.01 {
		t.Fatalf("exact matcher should not lose to union-find: %.4f vs %.4f", fe, fu)
	}
}

// TestCircuitFailureScalingMatchesDistance is the p→0 scaling check:
// the L=3 torus has distance 3, so ⌈d/2⌉ = (L+1)/2 = 2 faults are
// needed for a logical error and the failure rate must scale ≈ ε² —
// doubling ε quadruples it. A slope near 1 would mean some single fault
// defeats the decoder (the enumeration suite's statistical shadow).
// Larger distance at the same ε must also be quieter.
func TestCircuitFailureScalingMatchesDistance(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo scaling sweep")
	}
	const samples = 60000
	kind := toric.DecoderUnionFind
	r1 := toricCircuitMemory(3, 3, noise.Uniform(0.003), kind, samples, 37)
	r2 := toricCircuitMemory(3, 3, noise.Uniform(0.006), kind, samples, 38)
	f1, f2 := r1.FailRate(), r2.FailRate()
	if r1.Failures < 20 || r2.Failures < 20 {
		t.Fatalf("not enough failures to fit a slope: %d and %d", r1.Failures, r2.Failures)
	}
	slope := math.Log(f2/f1) / math.Log(2)
	if slope < 1.4 || slope > 3.1 {
		t.Fatalf("L=3 failure scaling ε^%.2f, want ≈ ε² ((L+1)/2 = 2 faults): %.2e → %.2e", slope, f1, f2)
	}
	r5 := toricCircuitMemory(5, 5, noise.Uniform(0.003), kind, samples, 39)
	if r5.FailRate() >= f1 {
		t.Fatalf("L=5 (%.4f) not quieter than L=3 (%.4f) at ε=0.003", r5.FailRate(), f1)
	}
}

// TestCircuitSustainedThresholdCrossing: the circuit-level sustained
// threshold sits in the sub-percent ε range — well below the
// phenomenological p = q ≈ 0.027 crossing, as the per-round fault
// multiplicity predicts.
func TestCircuitSustainedThresholdCrossing(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo sweep")
	}
	grid := []float64{0.002, 0.004, 0.006, 0.008, 0.011, 0.014}
	uniform := func(eps float64) Model { return Circuit(noise.Uniform(eps)) }
	cross, pts, err := SustainedThreshold(3, 5, grid, uniform, toric.DecoderUnionFind, DecodeOptions{}, 2000, 41)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(cross) {
		for _, pt := range pts {
			t.Logf("eps=%.3f: L=3 %.4f  L=5 %.4f", pt.P, pt.Small.FailRate(), pt.Large.FailRate())
		}
		t.Fatal("no circuit-level sustained crossing on the grid")
	}
	if cross < 0.002 || cross > 0.02 {
		t.Fatalf("implausible circuit-level sustained threshold %.4f", cross)
	}
	if cross >= 0.027 {
		t.Fatalf("circuit-level threshold %.4f must sit below the phenomenological ≈0.027", cross)
	}
}
