package spacetime

// Circuit-level syndrome extraction in the space-time volume.
//
// surface.CircuitSource runs the actual extraction circuit (ancilla per
// check, PrepZ/PrepX, four CNOTs in the code's schedule, MeasZ/MeasX)
// on the batch frame engine with faults at every location. This file
// wires that source into the decoding subsystem: the effective
// per-edge-class fault probabilities of the circuit model
// (CircuitProbs), their integer LLR weights (WeightsCircuit) and the
// offset metric the exact matcher prices pairs with on every volume,
// diagonal shortcuts included (circuitMetric). Memory runs the Monte
// Carlo under a Circuit model.

import (
	"math"

	"ftqc/internal/noise"
)

// CircuitProbs estimates the per-round effective probabilities of the
// three space-time edge classes under the circuit-level extraction
// model — the leading-order fault counting that replaces the
// phenomenological (p, q) pair. A faulty two-qubit gate draws one of 15
// nontrivial Paulis, so each qubit of the pair carries the relevant
// component with probability 8/15·Gate2. Per data edge per round:
//
//   - ph (horizontal — seen by both readers the same round): the idle
//     storage step (X or Y: 2/3·Storage), the two other-sector CNOTs
//     touching the qubit, the late same-sector CNOT (its fault lands
//     after both reads), and the mid-chain ancilla hooks propagated
//     onto the qubit (~3 CNOT-equivalents): ≈ 2/3·Storage + 6·8/15·Gate2.
//   - pd (diagonal — created between the two reads): the early
//     same-sector CNOT's fault on the data qubit: ≈ 8/15·Gate2.
//   - pv (vertical — a measurement flip with no data error): the
//     ancilla's preparation and readout faults plus the ancilla
//     component of its four CNOTs: ≈ Prep + Meas + 4·8/15·Gate2.
//
// The counting is symmetric between the sectors, so one triple serves
// both graphs.
func CircuitProbs(P noise.Params) (ph, pv, pd float64) {
	cx := 8.0 / 15.0 * P.Gate2
	ph = 2.0/3.0*P.Storage + 6*cx
	pv = P.Prep + P.Meas + 4*cx
	pd = cx
	return ph, pv, pd
}

// WeightsCircuit converts a circuit-level noise model into the three
// integer edge weights of the diagonal volume, the three-class
// extension of Weights: w ∝ log((1−p)/p) per class, scaled so the
// largest is weightScale, capped so no impossible channel beats the
// detour that avoids it (a diagonal is one horizontal plus one vertical
// step, and vice versa), and gcd-normalized.
func WeightsCircuit(P noise.Params, l, rounds int) (wh, wv, wd int) {
	ph, pv, pd := CircuitProbs(P)
	lh := clampLLR(ph)
	lv := clampLLR(pv)
	ld := clampLLR(pd)
	m := math.Max(lh, math.Max(lv, ld))
	scale := func(x float64) int {
		w := int(math.Round(weightScale * x / m))
		if w < 1 {
			w = 1
		}
		return w
	}
	wh, wv, wd = scale(lh), scale(lv), scale(ld)
	// Detour caps: beyond these a channel is indistinguishable from
	// "never" — the cheapest path around it is always taken (a diagonal
	// is one horizontal plus one vertical step; a vertical is a diagonal
	// minus a horizontal; a horizontal, a diagonal minus a vertical).
	if lim := wh + wv + 1; wd > lim {
		wd = lim
	}
	if lim := min(wh*l, wd+wh) + 1; wv > lim {
		wv = lim
	}
	if lim := min(wv*rounds, wd+wv) + 1; wh > lim {
		wh = lim
	}
	g := gcd(gcd(wh, wv), wd)
	return wh / g, wv / g, wd / g
}

// metric returns the offset metric tables of the two sectors, built on
// first use: only the exact matcher reads them, so union-find volumes —
// including every closing volume a streaming window builds — never run
// the Dijkstra builds or hold the tables. A plain volume (WD = 0, no
// diagonal moves) gets the rectilinear WH·TorusDist + WV·|Δt| from the
// same builder (TestPlainMetricIsRectilinear).
func (v *Volume) metric() (distX, distZ []int64) {
	v.distOnce.Do(func() {
		v.distX = circuitMetric(v.L, v.T, v.WH, v.WV, v.WD, v.diagX)
		v.distZ = circuitMetric(v.L, v.T, v.WH, v.WV, v.WD, v.diagZ)
	})
	return v.distX, v.distZ
}

// circuitMetric builds the all-offsets shortest-path table of a
// space-time graph by Dial's algorithm on the offset lattice: entry
// ((dy·L+dx)·(2T+1) + dt+T) is the weighted graph distance between two
// detectors displaced by (dx, dy) on the torus and dt rounds in time.
// Moves: ±x/±y cost wh, ±t cost wv, and the schedule's diagonal steps
// (the per-edge late→early reader offsets, advancing one lattice step
// and one round together; none when diag is nil) cost wd. Both
// check grids are L×L tori with ±x/±y adjacency, so one builder serves
// either sector given its diagonal table. Time is truncated at |dt| ≤ T
// — paths through the volume never leave it.
func circuitMetric(l, rounds, wh, wv, wd int, diag [][2]int32) []int64 {
	nc := l * l
	span := 2*rounds + 1
	// The distinct spatial offsets of the diagonal moves (late → early,
	// dt = +1): two per schedule.
	type off struct{ dx, dy int }
	seen := map[off]bool{}
	var diags []off
	for _, pr := range diag {
		late, early := int(pr[0]), int(pr[1])
		o := off{mod(early%l-late%l, l), mod(early/l-late/l, l)}
		if !seen[o] {
			seen[o] = true
			diags = append(diags, o)
		}
	}
	dist := make([]int64, nc*span)
	for i := range dist {
		dist[i] = -1
	}
	idx := func(dx, dy, dt int) int { return (dy*l+dx)*span + dt + rounds }
	maxW := wh
	if wv > maxW {
		maxW = wv
	}
	if wd > maxW {
		maxW = wd
	}
	// Every node is reachable within wh·L + wv·2T (spatial walk + time
	// walk), so longer tentative paths can be dropped: the bucket array
	// bounds the search.
	buckets := make([][]int32, maxW*(l+2*rounds)+1)
	push := func(dx, dy, dt int, d int64) {
		if d >= int64(len(buckets)) {
			return
		}
		i := idx(dx, dy, dt)
		if dist[i] < 0 || d < dist[i] {
			dist[i] = d
			buckets[d] = append(buckets[d], int32(i))
		}
	}
	push(0, 0, 0, 0)
	for d := int64(0); d < int64(len(buckets)); d++ {
		for k := 0; k < len(buckets[d]); k++ { // pushes may append to the current bucket
			i := int(buckets[d][k])
			if dist[i] != d {
				continue // stale entry
			}
			dt := i%span - rounds
			dx := (i / span) % l
			dy := i / span / l
			push(mod(dx+1, l), dy, dt, d+int64(wh))
			push(mod(dx-1, l), dy, dt, d+int64(wh))
			push(dx, mod(dy+1, l), dt, d+int64(wh))
			push(dx, mod(dy-1, l), dt, d+int64(wh))
			if dt < rounds {
				push(dx, dy, dt+1, d+int64(wv))
			}
			if dt > -rounds {
				push(dx, dy, dt-1, d+int64(wv))
			}
			for _, o := range diags {
				if dt < rounds {
					push(mod(dx+o.dx, l), mod(dy+o.dy, l), dt+1, d+int64(wd))
				}
				if dt > -rounds {
					push(mod(dx-o.dx, l), mod(dy-o.dy, l), dt-1, d+int64(wd))
				}
			}
		}
		buckets[d] = nil
	}
	return dist
}

func mod(a, l int) int { return ((a % l) + l) % l }
