package spacetime

import (
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/decoder"
	"ftqc/internal/noise"
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
		v.CommitEdges([]int32{int32(id)}, v.T+1, false, corr, bits.Vec{})
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

// TestWeightsCircuitHorizon: the horizon enters the weights only
// through the horizontal cap min(wv·horizon, wd+wv)+1. Under uniform
// circuit noise that cap never binds, so every horizon prices the same
// weights — a one-round run, which decodes through a two-layer window,
// and every circuit window price what the rounds would; under
// measurement-dominated noise it does, and a short horizon prices a
// cheaper horizontal edge.
func TestWeightsCircuitHorizon(t *testing.T) {
	for _, d := range []int{3, 4, 5, 8, 16} {
		for _, eps := range []float64{1e-5, 1e-4, 3e-4, 1e-3, 2e-3, 3e-3, 5e-3, 1e-2, 2e-2, 3e-2, 5e-2, 0.1, 0.2} {
			wh, wv, wd := WeightsCircuit(noise.Uniform(eps), d, 1)
			for horizon := 2; horizon <= 64; horizon++ {
				if h, v, g := WeightsCircuit(noise.Uniform(eps), d, horizon); h != wh || v != wv || g != wd {
					t.Errorf("d=%d eps=%v: horizon %d weights (%d,%d,%d), horizon 1 (%d,%d,%d)", d, eps, horizon, h, v, g, wh, wv, wd)
				}
			}
		}
	}
	P := noise.Params{Storage: 1e-4, Meas: 0.05}
	for _, c := range []struct{ horizon, wh, wv, wd int }{{2, 5, 2, 9}, {6, 6, 2, 9}} {
		if wh, wv, wd := WeightsCircuit(P, 3, c.horizon); wh != c.wh || wv != c.wv || wd != c.wd {
			t.Errorf("measurement-dominated, horizon %d: weights (%d,%d,%d), want (%d,%d,%d)", c.horizon, wh, wv, wd, c.wh, c.wv, c.wd)
		}
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

// TestPlainMetricIsRectilinear: without diagonals the offset table is
// WH·TorusDist + WV·|Δt| — the rectilinear metric plain volumes priced
// pairs with before they shared the table — for every offset of every
// L 2–7, T 1–5 and WH, WV 1–4.
func TestPlainMetricIsRectilinear(t *testing.T) {
	for l := 2; l <= 7; l++ {
		lat := toric.Cached(l)
		for rounds := 1; rounds <= 5; rounds++ {
			span := 2*rounds + 1
			for wh := 1; wh <= 4; wh++ {
				for wv := 1; wv <= 4; wv++ {
					dist := circuitMetric(l, rounds, wh, wv, 0, nil)
					for c := 0; c < l*l; c++ {
						for dt := -rounds; dt <= rounds; dt++ {
							want := int64(wh*lat.TorusDist(0, c) + wv*max(dt, -dt))
							if got := dist[c*span+dt+rounds]; got != want {
								t.Fatalf("L=%d T=%d wh=%d wv=%d offset %d dt=%d: table %d, rectilinear %d", l, rounds, wh, wv, c, dt, got, want)
							}
						}
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
