package decoder

// DefectGrid is a bucket index over defect coordinates: positions on an
// L×L torus (x and y wrap) crossed with an unwrapped time axis. It
// exists to make sparse-matching candidate enumeration ~O(n·k): instead
// of scanning all n² pairs for the ones within the staging cutoff, each
// defect visits only the grid cells its radius can reach. Iteration
// order is a pure function of the inserted points (cells scan in a
// fixed order, points within a cell in reverse insertion order), so the
// matcher's determinism contract is preserved.
//
// A DefectGrid is per-worker scratch like Matcher and UnionFind: Reset
// + Add rebuild it for each defect set, recycling the arrays.
type DefectGrid struct {
	l, cell    int // torus size and spatial cell edge (lattice units)
	nx         int // cells per spatial axis
	nt         int // time cells
	t0, tcell  int // time-axis origin and cell size
	head       []int32
	next       []int32
	xs, ys, ts []int32
}

// Reset prepares the grid for an L×L torus with spatial cells of edge
// `cell` (clamped to [1, L]) and a time axis covering [tmin, tmax] in
// cells of size tcell (use tmin = tmax = 0, tcell = 1 for 2D sets).
func (g *DefectGrid) Reset(l, cell, tmin, tmax, tcell int) {
	if cell < 1 {
		cell = 1
	}
	if cell > l {
		cell = l
	}
	if tcell < 1 {
		tcell = 1
	}
	g.l, g.cell, g.t0, g.tcell = l, cell, tmin, tcell
	g.nx = (l + cell - 1) / cell
	g.nt = (tmax-tmin)/tcell + 1
	cells := g.nx * g.nx * g.nt
	if cap(g.head) < cells {
		g.head = make([]int32, cells)
	}
	g.head = g.head[:cells]
	for i := range g.head {
		g.head[i] = -1
	}
	g.next = g.next[:0]
	g.xs, g.ys, g.ts = g.xs[:0], g.ys[:0], g.ts[:0]
}

// Add inserts the next point (call in vertex order 0, 1, 2, …). x and y
// must lie in [0, L); t in the Reset time range.
func (g *DefectGrid) Add(x, y, t int) {
	i := int32(len(g.next))
	c := g.cellOf(x, y, t)
	g.next = append(g.next, g.head[c])
	g.head[c] = i
	g.xs = append(g.xs, int32(x))
	g.ys = append(g.ys, int32(y))
	g.ts = append(g.ts, int32(t))
}

func (g *DefectGrid) cellOf(x, y, t int) int {
	return ((t-g.t0)/g.tcell*g.nx+y/g.cell)*g.nx + x/g.cell
}

// VisitWithin calls visit(j) for every point j (including i itself)
// whose torus box distance from point i is within dxy on each spatial
// axis and within dt on the time axis — a superset of any metric ball
// those radii bound. Each point is visited at most once.
func (g *DefectGrid) VisitWithin(i, dxy, dt int, visit func(j int)) {
	xi, yi, ti := int(g.xs[i]), int(g.ys[i]), int(g.ts[i])
	cxLo, cxN := g.spatialRange(xi, dxy)
	cyLo, cyN := g.spatialRange(yi, dxy)
	ctLo := (ti - dt - g.t0) / g.tcell
	if ti-dt < g.t0 {
		ctLo = 0
	}
	ctHi := (ti + dt - g.t0) / g.tcell
	if ctHi >= g.nt {
		ctHi = g.nt - 1
	}
	for ct := ctLo; ct <= ctHi; ct++ {
		for dy := 0; dy < cyN; dy++ {
			cy := cyLo + dy
			if cy >= g.nx {
				cy -= g.nx
			}
			row := (ct*g.nx + cy) * g.nx
			for dx := 0; dx < cxN; dx++ {
				cx := cxLo + dx
				if cx >= g.nx {
					cx -= g.nx
				}
				for j := g.head[row+cx]; j >= 0; j = g.next[j] {
					visit(int(j))
				}
			}
		}
	}
}

// spatialRange returns the first cell and cell count covering the
// wrapped interval [c−r, c+r] on one torus axis without revisiting any
// cell.
func (g *DefectGrid) spatialRange(c, r int) (lo, n int) {
	if 2*r+g.cell >= g.l {
		return 0, g.nx
	}
	lo = ((c-r)%g.l + g.l) % g.l / g.cell
	hi := (c + r) % g.l / g.cell
	n = hi - lo + 1
	if n <= 0 {
		n += g.nx
	}
	return lo, n
}

// MinWeightPairsIndexed returns a matching with the same total weight as
// MinWeightPairs while feeding the blossom engine only the locally short
// edges — those of weight at most cutoff — so the engine runs on ~O(n)
// edges instead of the complete O(n²) graph. Optimality against the full
// graph is certified, not assumed: after each solve, excluded pairs are
// priced against the engine's dual variables (blossom duals are
// nonnegative, so the vertex-dual check is conservative), violated edges
// are staged back in, and the solve repeats; if the pruned graph admits
// no perfect matching the cutoff doubles. For defect sets whose matched
// pairs are all locally close — the generic case below threshold — no
// repair round ever runs.
//
// Candidates come from the caller's neighbor enumerator, the hook for
// grid-bucketed staging: near(i, r, visit) must call visit(j) at least
// once for every j ≠ i with weight(i, j) ≤ r (supersets are fine —
// every candidate is re-checked against the true weight — but near must
// be a pure function of i and r, and must not visit any j more than
// once per call). Staging then enumerates ~O(n·k) candidate pairs
// instead of n², and the pricing sweep shrinks the same way: a pair
// excluded by the cutoff can only have negative reduced cost within a
// radius computed from the dual variables, so each vertex prices only
// the candidates inside that radius.
func (m *Matcher) MinWeightPairsIndexed(n int, weight func(i, j int) int64, cutoff int64, near func(i int, r int64, visit func(j int))) [][2]int32 {
	if n%2 != 0 {
		panic("decoder: odd vertex count in MinWeightPairsIndexed")
	}
	m.pairs = m.pairs[:0]
	if n == 0 {
		return m.pairs
	}
	if n == 2 {
		return append(m.pairs, [2]int32{0, 1})
	}
	if cutoff < 1 {
		cutoff = 1
	}
	if m.repair == nil {
		m.repair = make(map[int64]bool)
	}
	clear(m.repair)
	m.repairList = m.repairList[:0]
	for {
		// Stage the locally short edges via the enumerator, then the
		// priced-in repairs, with raw weights; the complement base is
		// recomputed per round so complemented weights stay nonnegative.
		m.edgeI, m.edgeJ, m.edgeW = m.edgeI[:0], m.edgeJ[:0], m.edgeW[:0]
		var maxW int64
		stage := func(i, j int, w int64) {
			if w > maxW {
				maxW = w
			}
			m.edgeI = append(m.edgeI, int32(i))
			m.edgeJ = append(m.edgeJ, int32(j))
			m.edgeW = append(m.edgeW, w)
		}
		for i := 0; i < n; i++ {
			near(i, cutoff, func(j int) {
				if j <= i {
					return
				}
				w := weight(i, j)
				if w < 0 {
					panic("decoder: negative weight")
				}
				if w > cutoff || m.repair[int64(i)*int64(n)+int64(j)] {
					return
				}
				stage(i, j, w)
			})
		}
		for _, pr := range m.repairList {
			stage(int(pr[0]), int(pr[1]), weight(int(pr[0]), int(pr[1])))
		}
		for k := range m.edgeW {
			m.edgeW[k] = 2 * (maxW - m.edgeW[k])
		}
		mate := m.blossom.maxWeightMatching(n, m.edgeI, m.edgeJ, m.edgeW)
		perfect := true
		for v := 0; v < n; v++ {
			if mate[v] < 0 {
				perfect = false
				break
			}
		}
		if !perfect {
			// Too sparse to pair everyone: widen and retry (bounded —
			// the complete graph always matches).
			cutoff *= 2
			continue
		}
		// Pricing: an excluded edge (i, j) improves the matching only if
		// dual[i] + dual[j] − 4·(maxW − w) < 0, i.e. only if its weight
		// is under maxW − (dual[i] + dual[j])/4. Bounding dual[j] by the
		// global minimum turns that into a per-vertex radius, so the
		// enumerator prunes the sweep to the candidates that could
		// possibly violate; each one is then checked exactly. No
		// violations certifies optimality against the complete graph
		// (blossom duals are nonnegative, so the vertex-dual test is
		// conservative).
		dual := m.blossom.dualvar
		dmin := dual[0]
		for v := 1; v < n; v++ {
			if dual[v] < dmin {
				dmin = dual[v]
			}
		}
		violated := false
		for i := 0; i < n; i++ {
			r := maxW - floorDiv(dual[i]+dmin, 4)
			if r <= cutoff {
				continue
			}
			near(i, r, func(j int) {
				if j <= i {
					return
				}
				w := weight(i, j)
				if w <= cutoff || m.repair[int64(i)*int64(n)+int64(j)] {
					return
				}
				if dual[i]+dual[j]-4*(maxW-w) < 0 {
					m.repair[int64(i)*int64(n)+int64(j)] = true
					m.repairList = append(m.repairList, [2]int32{int32(i), int32(j)})
					violated = true
				}
			})
		}
		if violated {
			continue
		}
		for v := 0; v < n; v++ {
			if w := mate[v]; int32(v) < w {
				m.pairs = append(m.pairs, [2]int32{int32(v), w})
			}
		}
		return m.pairs
	}
}

// floorDiv is floored (not truncated) integer division for possibly
// negative numerators — the pricing radius must round toward −∞ to stay
// a superset.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
