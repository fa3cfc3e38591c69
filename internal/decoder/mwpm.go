package decoder

// Polynomial minimum-weight perfect matching on dense defect graphs.
//
// The engine is the classic primal-dual blossom algorithm for maximum
// weight matching in general graphs (Galil's O(n³) formulation, following
// the well-known van Rantwijk reference implementation): it maintains
// vertex/blossom dual variables, grows alternating trees from free
// vertices, shrinks odd cycles into blossoms, and adjusts duals until an
// augmenting path of tight edges appears. Minimum-weight PERFECT matching
// is obtained by running it in maximum-cardinality mode on the
// complement weights w'ₑ = W − wₑ (W ≥ max wₑ): with cardinality fixed at
// n/2, maximizing Σw' minimizes Σw. All arithmetic is integral — input
// weights are doubled internally so the half-integral duals of the
// textbook algorithm stay in int64.

// Matcher computes minimum-weight perfect matchings. The zero value is
// ready to use; a Matcher recycles its internal arrays across calls and
// is NOT safe for concurrent use (one per worker, like UnionFind).
type Matcher struct {
	blossom blossomState
	// complete-graph edge staging
	edgeI, edgeJ []int32
	edgeW        []int64
	pairs        [][2]int32
}

// MinWeightPairs returns a pairing (i,j), i<j, of the n vertices
// 0…n-1 minimizing the total weight(i,j), where weight is symmetric and
// nonnegative. n must be even. The returned slice is reused by the next
// call. Ties between equal-weight pairings are broken deterministically
// (a pure function of the weight table).
func (m *Matcher) MinWeightPairs(n int, weight func(i, j int) int64) [][2]int32 {
	if n%2 != 0 {
		panic("decoder: odd vertex count in MinWeightPairs")
	}
	m.pairs = m.pairs[:0]
	if n == 0 {
		return m.pairs
	}
	if n == 2 {
		return append(m.pairs, [2]int32{0, 1})
	}
	ne := n * (n - 1) / 2
	if cap(m.edgeI) < ne {
		m.edgeI = make([]int32, 0, ne)
		m.edgeJ = make([]int32, 0, ne)
		m.edgeW = make([]int64, 0, ne)
	}
	m.edgeI, m.edgeJ, m.edgeW = m.edgeI[:0], m.edgeJ[:0], m.edgeW[:0]
	var maxW int64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w := weight(i, j)
			if w < 0 {
				panic("decoder: negative weight")
			}
			if w > maxW {
				maxW = w
			}
			m.edgeI = append(m.edgeI, int32(i))
			m.edgeJ = append(m.edgeJ, int32(j))
			m.edgeW = append(m.edgeW, w)
		}
	}
	// Complement so maximum-weight = minimum-distance, then double for
	// integral duals.
	for k := range m.edgeW {
		m.edgeW[k] = 2 * (maxW - m.edgeW[k])
	}
	mate := m.blossom.maxWeightMatching(n, m.edgeI, m.edgeJ, m.edgeW)
	for v := 0; v < n; v++ {
		w := mate[v]
		if w < 0 {
			panic("decoder: matching is not perfect")
		}
		if int32(v) < w {
			m.pairs = append(m.pairs, [2]int32{int32(v), w})
		}
	}
	return m.pairs
}

// blossomState holds the primal-dual working arrays of one matching run.
type blossomState struct {
	nvertex int
	nedge   int
	edgeI   []int32
	edgeJ   []int32
	edgeW   []int64

	endpoint  []int32   // endpoint[p] = vertex at endpoint p of edge p/2
	neighbend [][]int32 // neighbend[v] = remote endpoints of v's edges

	mate      []int32 // mate[v] = remote endpoint of matched edge, or -1
	label     []uint8 // 0 free, 1 S, 2 T (+4 breadcrumb during scans)
	labelend  []int32
	inblossom []int32

	blossomparent    []int32
	blossomchilds    [][]int32
	blossombase      []int32
	blossomendps     [][]int32
	bestedge         []int32
	blossombestedges [][]int32
	unusedblossoms   []int32

	dualvar    []int64
	allowedge  []bool
	queue      []int32
	bestedgeto []int32
}

func (st *blossomState) slack(k int32) int64 {
	return st.dualvar[st.edgeI[k]] + st.dualvar[st.edgeJ[k]] - 2*st.edgeW[k]
}

// blossomLeaves calls fn for every vertex inside blossom b.
func (st *blossomState) blossomLeaves(b int32, fn func(v int32)) {
	if int(b) < st.nvertex {
		fn(b)
		return
	}
	for _, t := range st.blossomchilds[b] {
		st.blossomLeaves(t, fn)
	}
}

// assignLabel labels the top-level blossom of vertex w as t (1=S, 2=T)
// reached through endpoint p.
func (st *blossomState) assignLabel(w int32, t uint8, p int32) {
	b := st.inblossom[w]
	st.label[w] = t
	st.label[b] = t
	st.labelend[w] = p
	st.labelend[b] = p
	st.bestedge[w] = -1
	st.bestedge[b] = -1
	if t == 1 {
		st.blossomLeaves(b, func(v int32) { st.queue = append(st.queue, v) })
	} else if t == 2 {
		base := st.blossombase[b]
		st.assignLabel(st.endpoint[st.mate[base]], 1, st.mate[base]^1)
	}
}

// scanBlossom traces back from v and w to discover either a new blossom
// (returns its base) or an augmenting path (returns -1).
func (st *blossomState) scanBlossom(v, w int32) int32 {
	path := []int32{}
	base := int32(-1)
	for v != -1 || w != -1 {
		b := st.inblossom[v]
		if st.label[b]&4 != 0 {
			base = st.blossombase[b]
			break
		}
		path = append(path, b)
		st.label[b] |= 4
		if st.labelend[b] == -1 {
			v = -1
		} else {
			v = st.endpoint[st.labelend[b]]
			b = st.inblossom[v]
			v = st.endpoint[st.labelend[b]]
		}
		if w != -1 {
			v, w = w, v
		}
	}
	for _, b := range path {
		st.label[b] &^= 4
	}
	return base
}

// addBlossom shrinks the odd cycle through base closed by edge k into a
// new blossom.
func (st *blossomState) addBlossom(base int32, k int32) {
	v, w := st.edgeI[k], st.edgeJ[k]
	bb := st.inblossom[base]
	bv := st.inblossom[v]
	bw := st.inblossom[w]
	b := st.unusedblossoms[len(st.unusedblossoms)-1]
	st.unusedblossoms = st.unusedblossoms[:len(st.unusedblossoms)-1]
	st.blossombase[b] = base
	st.blossomparent[b] = -1
	st.blossomparent[bb] = b
	path := st.blossomchilds[b][:0]
	endps := st.blossomendps[b][:0]
	for bv != bb {
		st.blossomparent[bv] = b
		path = append(path, bv)
		endps = append(endps, st.labelend[bv])
		v = st.endpoint[st.labelend[bv]]
		bv = st.inblossom[v]
	}
	path = append(path, bb)
	// Reverse into cycle order starting at the base.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	for i, j := 0, len(endps)-1; i < j; i, j = i+1, j-1 {
		endps[i], endps[j] = endps[j], endps[i]
	}
	endps = append(endps, 2*k)
	for bw != bb {
		st.blossomparent[bw] = b
		path = append(path, bw)
		endps = append(endps, st.labelend[bw]^1)
		w = st.endpoint[st.labelend[bw]]
		bw = st.inblossom[w]
	}
	st.blossomchilds[b] = path
	st.blossomendps[b] = endps
	st.label[b] = 1
	st.labelend[b] = st.labelend[bb]
	st.dualvar[b] = 0
	st.blossomLeaves(b, func(u int32) {
		if st.label[st.inblossom[u]] == 2 {
			st.queue = append(st.queue, u)
		}
		st.inblossom[u] = b
	})
	// Recompute the least-slack edges from the new blossom to every other
	// S-blossom.
	bestedgeto := st.bestedgeto
	for i := range bestedgeto {
		bestedgeto[i] = -1
	}
	for _, bv := range path {
		if st.blossombestedges[bv] == nil {
			// Walk all edges of all leaves.
			st.blossomLeaves(bv, func(u int32) {
				for _, p := range st.neighbend[u] {
					st.considerBest(b, p/2, bestedgeto)
				}
			})
		} else {
			for _, k2 := range st.blossombestedges[bv] {
				st.considerBest(b, k2, bestedgeto)
			}
		}
		st.blossombestedges[bv] = nil
		st.bestedge[bv] = -1
	}
	best := st.blossombestedges[b][:0]
	for _, k2 := range bestedgeto {
		if k2 != -1 {
			best = append(best, k2)
		}
	}
	st.blossombestedges[b] = best
	st.bestedge[b] = -1
	for _, k2 := range best {
		if st.bestedge[b] == -1 || st.slack(k2) < st.slack(st.bestedge[b]) {
			st.bestedge[b] = k2
		}
	}
}

// considerBest updates bestedgeto with edge k if it leaves blossom b
// toward an S-blossom with smaller slack than the current candidate.
func (st *blossomState) considerBest(b, k int32, bestedgeto []int32) {
	j := st.edgeJ[k]
	if st.inblossom[j] == b {
		j = st.edgeI[k]
	}
	bj := st.inblossom[j]
	if bj != b && st.label[bj] == 1 &&
		(bestedgeto[bj] == -1 || st.slack(k) < st.slack(bestedgeto[bj])) {
		bestedgeto[bj] = k
	}
}

// expandBlossom undoes blossom b, relabeling its children. endstage is
// true when expanding zero-dual S-blossoms after an augmentation.
func (st *blossomState) expandBlossom(b int32, endstage bool) {
	for _, s := range st.blossomchilds[b] {
		st.blossomparent[s] = -1
		if int(s) < st.nvertex {
			st.inblossom[s] = s
		} else if endstage && st.dualvar[s] == 0 {
			st.expandBlossom(s, endstage)
		} else {
			st.blossomLeaves(s, func(v int32) { st.inblossom[v] = s })
		}
	}
	if !endstage && st.label[b] == 2 {
		// The expanding blossom is part of a T-alternating path; relabel
		// the even-length sub-path of children along the path and unlabel
		// the rest.
		entrychild := st.inblossom[st.endpoint[st.labelend[b]^1]]
		j := int32(indexOf(st.blossomchilds[b], entrychild))
		var jstep, endptrick int32
		if j&1 != 0 {
			j -= int32(len(st.blossomchilds[b]))
			jstep = 1
			endptrick = 0
		} else {
			jstep = -1
			endptrick = 1
		}
		p := st.labelend[b]
		for j != 0 {
			st.label[st.endpoint[p^1]] = 0
			st.label[st.endpoint[at(st.blossomendps[b], j-endptrick)^endptrick^1]] = 0
			st.assignLabel(st.endpoint[p^1], 2, p)
			st.allowedge[at(st.blossomendps[b], j-endptrick)/2] = true
			j += jstep
			p = at(st.blossomendps[b], j-endptrick) ^ endptrick
			st.allowedge[p/2] = true
			j += jstep
		}
		bv := at(st.blossomchilds[b], j)
		st.label[st.endpoint[p^1]] = 2
		st.label[bv] = 2
		st.labelend[st.endpoint[p^1]] = p
		st.labelend[bv] = p
		st.bestedge[bv] = -1
		j += jstep
		for at(st.blossomchilds[b], j) != entrychild {
			bv = at(st.blossomchilds[b], j)
			if st.label[bv] == 1 {
				j += jstep
				continue
			}
			var vfound int32 = -1
			st.blossomLeaves(bv, func(v int32) {
				if vfound == -1 && st.label[v] != 0 {
					vfound = v
				}
			})
			if vfound != -1 {
				st.label[vfound] = 0
				st.label[st.endpoint[st.mate[st.blossombase[bv]]]] = 0
				st.assignLabel(vfound, 2, st.labelend[vfound])
			}
			j += jstep
		}
	}
	st.label[b] = 0
	st.labelend[b] = -1
	st.blossomchilds[b] = st.blossomchilds[b][:0]
	st.blossomendps[b] = st.blossomendps[b][:0]
	st.blossombase[b] = -1
	st.blossombestedges[b] = nil
	st.bestedge[b] = -1
	st.unusedblossoms = append(st.unusedblossoms, b)
}

// at indexes a cyclic child/endpoint list with a possibly negative index
// (Python-style wraparound).
func at(s []int32, j int32) int32 {
	if j < 0 {
		j += int32(len(s))
	}
	return s[j]
}

func indexOf(s []int32, x int32) int {
	for i, v := range s {
		if v == x {
			return i
		}
	}
	panic("decoder: blossom child not found")
}

// augmentBlossom swaps matched/unmatched edges over the alternating path
// through blossom b between its base and vertex v.
func (st *blossomState) augmentBlossom(b, v int32) {
	t := v
	for st.blossomparent[t] != b {
		t = st.blossomparent[t]
	}
	if int(t) >= st.nvertex {
		st.augmentBlossom(t, v)
	}
	i := int32(indexOf(st.blossomchilds[b], t))
	j := i
	var jstep, endptrick int32
	if i&1 != 0 {
		j -= int32(len(st.blossomchilds[b]))
		jstep = 1
		endptrick = 0
	} else {
		jstep = -1
		endptrick = 1
	}
	for j != 0 {
		j += jstep
		t = at(st.blossomchilds[b], j)
		p := at(st.blossomendps[b], j-endptrick) ^ endptrick
		if int(t) >= st.nvertex {
			st.augmentBlossom(t, st.endpoint[p])
		}
		j += jstep
		t = at(st.blossomchilds[b], j)
		if int(t) >= st.nvertex {
			st.augmentBlossom(t, st.endpoint[p^1])
		}
		st.mate[st.endpoint[p]] = p ^ 1
		st.mate[st.endpoint[p^1]] = p
	}
	// Rotate the child list so the new base (containing v) comes first.
	st.blossomchilds[b] = append(st.blossomchilds[b][i:], st.blossomchilds[b][:i]...)
	st.blossomendps[b] = append(st.blossomendps[b][i:], st.blossomendps[b][:i]...)
	st.blossombase[b] = st.blossombase[st.blossomchilds[b][0]]
}

// augmentMatching augments along the path through tight edge k.
func (st *blossomState) augmentMatching(k int32) {
	v, w := st.edgeI[k], st.edgeJ[k]
	for _, sp := range [2][2]int32{{v, 2*k + 1}, {w, 2 * k}} {
		s, p := sp[0], sp[1]
		for {
			bs := st.inblossom[s]
			if int(bs) >= st.nvertex {
				st.augmentBlossom(bs, s)
			}
			st.mate[s] = p
			if st.labelend[bs] == -1 {
				break
			}
			t := st.endpoint[st.labelend[bs]]
			bt := st.inblossom[t]
			s = st.endpoint[st.labelend[bt]]
			j := st.endpoint[st.labelend[bt]^1]
			if int(bt) >= st.nvertex {
				st.augmentBlossom(bt, j)
			}
			st.mate[j] = st.labelend[bt]
			p = st.labelend[bt] ^ 1
		}
	}
}

// maxWeightMatching computes a maximum-cardinality matching of maximum
// total weight (weights may be negative after complementing). Returns
// mate[v] as a vertex index or -1. The run is fully deterministic.
func (st *blossomState) maxWeightMatching(n int, edgeI, edgeJ []int32, edgeW []int64) []int32 {
	st.nvertex = n
	st.nedge = len(edgeW)
	st.edgeI, st.edgeJ, st.edgeW = edgeI, edgeJ, edgeW

	var maxweight int64
	for _, w := range edgeW {
		if w > maxweight {
			maxweight = w
		}
	}

	st.endpoint = resizeI32(st.endpoint, 2*st.nedge)
	for p := range st.endpoint {
		if p%2 == 0 {
			st.endpoint[p] = edgeI[p/2]
		} else {
			st.endpoint[p] = edgeJ[p/2]
		}
	}
	if cap(st.neighbend) < n {
		st.neighbend = make([][]int32, n)
	}
	st.neighbend = st.neighbend[:n]
	for v := range st.neighbend {
		st.neighbend[v] = st.neighbend[v][:0]
	}
	for k := 0; k < st.nedge; k++ {
		st.neighbend[edgeI[k]] = append(st.neighbend[edgeI[k]], int32(2*k+1))
		st.neighbend[edgeJ[k]] = append(st.neighbend[edgeJ[k]], int32(2*k))
	}

	st.mate = resizeI32(st.mate, n)
	fillI32(st.mate, -1)
	st.label = resizeU8(st.label, 2*n)
	st.labelend = resizeI32(st.labelend, 2*n)
	fillI32(st.labelend, -1)
	st.inblossom = resizeI32(st.inblossom, n)
	for v := 0; v < n; v++ {
		st.inblossom[v] = int32(v)
	}
	st.blossomparent = resizeI32(st.blossomparent, 2*n)
	fillI32(st.blossomparent, -1)
	st.blossombase = resizeI32(st.blossombase, 2*n)
	for v := 0; v < n; v++ {
		st.blossombase[v] = int32(v)
	}
	fillI32(st.blossombase[n:], -1)
	if cap(st.blossomchilds) < 2*n {
		st.blossomchilds = make([][]int32, 2*n)
		st.blossomendps = make([][]int32, 2*n)
		st.blossombestedges = make([][]int32, 2*n)
	}
	st.blossomchilds = st.blossomchilds[:2*n]
	st.blossomendps = st.blossomendps[:2*n]
	st.blossombestedges = st.blossombestedges[:2*n]
	for i := range st.blossomchilds {
		st.blossomchilds[i] = st.blossomchilds[i][:0]
		st.blossomendps[i] = st.blossomendps[i][:0]
		st.blossombestedges[i] = nil
	}
	st.bestedge = resizeI32(st.bestedge, 2*n)
	fillI32(st.bestedge, -1)
	st.unusedblossoms = st.unusedblossoms[:0]
	for b := n; b < 2*n; b++ {
		st.unusedblossoms = append(st.unusedblossoms, int32(b))
	}
	if cap(st.dualvar) < 2*n {
		st.dualvar = make([]int64, 2*n)
	}
	st.dualvar = st.dualvar[:2*n]
	for v := 0; v < n; v++ {
		st.dualvar[v] = maxweight
	}
	for b := n; b < 2*n; b++ {
		st.dualvar[b] = 0
	}
	if cap(st.allowedge) < st.nedge {
		st.allowedge = make([]bool, st.nedge)
	}
	st.allowedge = st.allowedge[:st.nedge]
	st.bestedgeto = resizeI32(st.bestedgeto, 2*n)
	st.queue = st.queue[:0]

	for t := 0; t < n; t++ {
		// New stage: clear labels, best-edge caches and the tight-edge
		// set; queue every free vertex as an S-vertex.
		for i := range st.label {
			st.label[i] = 0
		}
		fillI32(st.bestedge, -1)
		for b := n; b < 2*n; b++ {
			st.blossombestedges[b] = nil
		}
		for k := range st.allowedge {
			st.allowedge[k] = false
		}
		st.queue = st.queue[:0]
		for v := int32(0); int(v) < n; v++ {
			if st.mate[v] == -1 && st.label[st.inblossom[v]] == 0 {
				st.assignLabel(v, 1, -1)
			}
		}
		augmented := false
		for {
			for len(st.queue) > 0 && !augmented {
				v := st.queue[len(st.queue)-1]
				st.queue = st.queue[:len(st.queue)-1]
				for _, p := range st.neighbend[v] {
					k := p / 2
					w := st.endpoint[p]
					if st.inblossom[v] == st.inblossom[w] {
						continue
					}
					var kslack int64
					if !st.allowedge[k] {
						kslack = st.slack(k)
						if kslack <= 0 {
							st.allowedge[k] = true
						}
					}
					if st.allowedge[k] {
						if st.label[st.inblossom[w]] == 0 {
							st.assignLabel(w, 2, p^1)
						} else if st.label[st.inblossom[w]] == 1 {
							base := st.scanBlossom(v, w)
							if base >= 0 {
								st.addBlossom(base, k)
							} else {
								st.augmentMatching(k)
								augmented = true
								break
							}
						} else if st.label[w] == 0 {
							st.label[w] = 2
							st.labelend[w] = p ^ 1
						}
					} else if st.label[st.inblossom[w]] == 1 {
						b := st.inblossom[v]
						if st.bestedge[b] == -1 || kslack < st.slack(st.bestedge[b]) {
							st.bestedge[b] = k
						}
					} else if st.label[w] == 0 {
						if st.bestedge[w] == -1 || kslack < st.slack(st.bestedge[w]) {
							st.bestedge[w] = k
						}
					}
				}
			}
			if augmented {
				break
			}
			// Dual adjustment. Max-cardinality mode: deltatype 1 only as
			// a last resort.
			deltatype := -1
			var delta int64
			var deltaedge, deltablossom int32
			for v := 0; v < n; v++ {
				if st.label[st.inblossom[v]] == 0 && st.bestedge[v] != -1 {
					d := st.slack(st.bestedge[v])
					if deltatype == -1 || d < delta {
						delta = d
						deltatype = 2
						deltaedge = st.bestedge[v]
					}
				}
			}
			for b := int32(0); int(b) < 2*n; b++ {
				if st.blossomparent[b] == -1 && st.label[b] == 1 && st.bestedge[b] != -1 {
					kslack := st.slack(st.bestedge[b])
					d := kslack / 2
					if deltatype == -1 || d < delta {
						delta = d
						deltatype = 3
						deltaedge = st.bestedge[b]
					}
				}
			}
			for b := int32(n); int(b) < 2*n; b++ {
				if st.blossombase[b] >= 0 && st.blossomparent[b] == -1 &&
					st.label[b] == 2 && (deltatype == -1 || st.dualvar[b] < delta) {
					delta = st.dualvar[b]
					deltatype = 4
					deltablossom = b
				}
			}
			if deltatype == -1 {
				// No further progress possible: optimum at this
				// cardinality. delta = max(0, min vertex dual).
				deltatype = 1
				min := st.dualvar[0]
				for v := 1; v < n; v++ {
					if st.dualvar[v] < min {
						min = st.dualvar[v]
					}
				}
				if min > 0 {
					delta = min
				} else {
					delta = 0
				}
			}
			// Apply the delta to the duals.
			for v := 0; v < n; v++ {
				switch st.label[st.inblossom[v]] {
				case 1:
					st.dualvar[v] -= delta
				case 2:
					st.dualvar[v] += delta
				}
			}
			for b := int32(n); int(b) < 2*n; b++ {
				if st.blossombase[b] >= 0 && st.blossomparent[b] == -1 {
					switch st.label[b] {
					case 1:
						st.dualvar[b] += delta
					case 2:
						st.dualvar[b] -= delta
					}
				}
			}
			switch deltatype {
			case 1:
				// Optimum reached.
			case 2:
				st.allowedge[deltaedge] = true
				i := st.edgeI[deltaedge]
				if st.label[st.inblossom[i]] == 0 {
					i = st.edgeJ[deltaedge]
				}
				st.queue = append(st.queue, i)
			case 3:
				st.allowedge[deltaedge] = true
				st.queue = append(st.queue, st.edgeI[deltaedge])
			case 4:
				st.expandBlossom(deltablossom, false)
			}
			if deltatype == 1 {
				break
			}
		}
		if !augmented {
			break
		}
		// End of stage: expand all S-blossoms with zero dual.
		for b := int32(n); int(b) < 2*n; b++ {
			if st.blossomparent[b] == -1 && st.blossombase[b] >= 0 &&
				st.label[b] == 1 && st.dualvar[b] == 0 {
				st.expandBlossom(b, true)
			}
		}
	}
	// Convert endpoints to vertex ids.
	for v := 0; v < n; v++ {
		if st.mate[v] >= 0 {
			st.mate[v] = st.endpoint[st.mate[v]]
		}
	}
	return st.mate
}

func resizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func resizeU8(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	return s[:n]
}

func fillI32(s []int32, x int32) {
	for i := range s {
		s[i] = x
	}
}
