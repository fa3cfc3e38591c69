package decoder

// UnionFind is a weighted-growth union-find decoder (Delfosse–Nickerson
// style) over a fixed decoding graph. Decode cost is near-linear in the
// size of the grown region around the syndrome, not in the graph, so a
// sparse defect set on a large lattice decodes in microseconds where
// matching decoders pay at least O(defects²).
//
// A UnionFind holds scratch arrays and is NOT safe for concurrent use;
// give each worker its own instance (they can all share one *Graph), as
// Service does. Scratch is recycled across calls with epoch stamps, so a
// Decode touches only the arrays' used entries, and a decode's output
// never depends on what the instance decoded before, on any graph. All
// per-node state is one 32-byte record and all per-edge state its 2-byte
// support, so the pointer-chasing hot loops touch one cache line per node
// and one random load per edge visit.
type UnionFind struct {
	g *Graph

	// node[v] is all cluster, boundary-list and erasure state of node v.
	node []ufNode

	// edge[e] is edge e's support, in half-steps of growth: the edge is
	// fully grown (in the erasure) at its target 2·weight, which the graph
	// keeps beside each adjacency slot — so unit-weight graphs keep the
	// classic 0→1→2 progression and heavier edges take proportionally
	// more sweeps to cross. Edges that gained support are listed in dirty
	// and zeroed at the start of the next decode instead of being
	// epoch-stamped, so no support outlives its decode or its graph.
	edge  []uint16
	dirty []int32

	// sweeps counts the half-step growth sweeps of the last Decode; a
	// pure-erasure syndrome (every defect inside an even-parity erased
	// component) leaves it at 0 — the peeling-only fast path.
	sweeps int

	// bnd is the arena of the boundary lists: cluster members that may
	// still have ungrown incident edges, linked from their root's
	// bndHead/bndTail, so a union concatenates in O(1).
	bnd []bndCell

	// Erasure adjacency, in CSR form rebuilt at peel time: allGrown
	// collects every fully-grown edge in completion order, the nodes'
	// eraDeg count their incidences as they complete, and two scatter
	// passes lay the adjacency out contiguously in csrEdge/csrNode — so
	// peeling walks exactly the grown region in cache order and never
	// rescans graph adjacency.
	allGrown []int32
	csrEdge  []int32
	csrNode  []int32

	// First-touch log of every node reached this decode: the candidate
	// roots of the first odd-cluster collection and the node order of the
	// CSR build.
	touched []int32

	// Correction of the last emit-style decode (Decode).
	corrBuf []int32

	epoch uint32

	// Isolated-pair scratch (appendPaired), sized for the longest list the
	// density rule admits: mark[v] is 2·epoch for a defect, 2·epoch+1 for
	// half of a pair; rest is what is left to grow, pairs their peel steps.
	mark  []uint32
	rest  []int
	pairs []peelStep

	// Reusable worklists.
	odd   []int32
	grown []int32
	stack []int32
	order []peelStep
}

// sparseK is the density rule of AppendCorrection: a plain decode of n
// defects on an N-node graph looks for isolated pairs when n·sparseK ≤ N
// (doc.go has the measured crossovers it sits between).
const sparseK = 64

// ufNode is the per-node record. stamp encodes the epoch the record is
// valid for (2·epoch when touched, 2·epoch+1 once visited by the peeling
// pass). flags bit 0 is the cluster defect parity (at roots), bit 1 the
// node's live defect flag during peeling, bit 2 the grounded flag (at
// roots): the cluster contains an open-boundary node, which absorbs its
// parity, so it never grows; bit 3 marks a root queued for the next
// growth sweep. bndHead/bndTail head the cluster's boundary list (at
// roots, -1 when empty). eraDeg counts the node's fully-grown incident
// edges; eraStart is its block in the peel-time CSR.
type ufNode struct {
	parent   int32
	size     int32
	stamp    uint32
	flags    uint32
	bndHead  int32
	bndTail  int32
	eraDeg   int32
	eraStart int32
}

type bndCell struct {
	node, next int32
}

type peelStep struct {
	node, parentEdge, parentNode int32
}

// NewUnionFind returns a decoder instance over g.
func NewUnionFind(g *Graph) *UnionFind {
	u := new(UnionFind)
	u.bind(g)
	return u
}

// bind points u at g, growing its arrays only where g is larger than
// every graph u decoded on before: O(1) once they fit. Zeroed arrays are
// valid epoch-0 state.
func (u *UnionFind) bind(g *Graph) {
	u.g = g
	if len(u.node) < g.nodes {
		u.node = make([]ufNode, g.nodes)
		u.mark = make([]uint32, g.nodes)
		u.rest = make([]int, 0, g.nodes/sparseK)
		u.pairs = make([]peelStep, 0, g.nodes/sparseK/2)
	}
	if len(u.edge) < len(g.endU) {
		u.edge = make([]uint16, len(g.endU))
	}
}

// GrowthSweeps returns the number of half-step growth sweeps the last
// Decode or AppendCorrection ran: the unit is one half-step of support on
// every boundary edge of every odd cluster, however many of them one pass
// over the boundary stood for (the first pass of a decode covers the
// graph's smallest weight in sweeps — see AppendCorrection). Zero means the
// peeling-only fast path: every defect was already inside an even-parity
// erased cluster.
func (u *UnionFind) GrowthSweeps() int { return u.sweeps }

// touch initializes node v's record for the current epoch if it has not
// been seen yet, as a parity-0 singleton with an empty boundary and no
// grown edges. Open-boundary nodes start (and stay) grounded.
func (u *UnionFind) touch(v int32) {
	n := &u.node[v]
	if n.stamp>>1 == u.epoch {
		return
	}
	*n = ufNode{parent: v, size: 1, stamp: u.epoch << 1, bndHead: -1, bndTail: -1}
	if u.g.IsBoundary(int(v)) {
		n.flags = 4
	}
	u.touched = append(u.touched, v)
}

// find returns the root of v's cluster with path compression.
func (u *UnionFind) find(v int32) int32 {
	node := u.node
	for node[v].parent != v {
		node[v].parent = node[node[v].parent].parent
		v = node[v].parent
	}
	return v
}

// pushBoundary appends node w to root r's boundary list.
func (u *UnionFind) pushBoundary(r, w int32) {
	u.bnd = append(u.bnd, bndCell{node: w, next: -1})
	idx := int32(len(u.bnd)) - 1
	n := &u.node[r]
	if n.bndTail < 0 {
		n.bndHead = idx
	} else {
		u.bnd[n.bndTail].next = idx
	}
	n.bndTail = idx
}

// Decode grows clusters around the defects until every cluster holds an
// even number of them, then peels the grown region into a correction,
// calling emit once per correction edge. The defect list must be the
// syndrome of some error pattern (even total parity on a closed graph);
// emit receives each edge at most once, in a deterministic order that
// depends only on the defect list.
func (u *UnionFind) Decode(defects []int, emit func(edge int)) {
	u.corrBuf = u.AppendCorrection(u.corrBuf[:0], defects, nil)
	for _, e := range u.corrBuf {
		emit(int(e))
	}
}

// AppendCorrection is Decode with erasure information and the correction
// appended to corr in emit order and returned re-sliced, so a
// caller-owned buffer makes the steady state allocation-free — the form
// the decode service and the streaming window run on. The erased edges
// are known fault locations (leaked or erased qubits) and enter the
// erasure at full support before any growth: clusters whose defects are
// already paired inside the erased components decode by peeling alone,
// only the odd remainder grows, and erased edges may be emitted even when
// no cluster grows. A sparse plain decode takes its isolated pairs out
// before growing the rest, with the same output (see doc.go).
func (u *UnionFind) AppendCorrection(corr []int32, defects, erased []int) []int32 {
	if len(erased) == 0 && u.g.Sparse(len(defects)) {
		return u.appendPaired(corr, defects)
	}
	return u.appendFull(corr, defects, erased)
}

// reset zeroes the last decode's support and opens an epoch if needed.
func (u *UnionFind) reset(defects []int) bool {
	u.sweeps = 0
	u.touched = u.touched[:0]
	edge := u.edge
	for _, e := range u.dirty {
		edge[e] = 0
	}
	u.dirty = u.dirty[:0]
	if len(defects) == 0 {
		return false
	}
	u.bumpEpoch()
	u.allGrown = u.allGrown[:0]
	u.bnd = u.bnd[:0]
	return true
}

// appendFull decodes every defect through seeding, growth and peeling.
func (u *UnionFind) appendFull(corr []int32, defects, erased []int) []int32 {
	if !u.reset(defects) {
		return corr
	}
	u.grow(defects, erased, nil)
	return u.peel(corr, defects, nil)
}

// appendShot decodes one pool shot into its correction buffer: given its
// first growth pass when it carries one and the decode grows from
// scratch (plain, past the density rule), else as AppendCorrection.
func (u *UnionFind) appendShot(s *Shot) []int32 {
	if s.FirstPass == nil || len(s.Erased) > 0 || u.g.Sparse(len(s.Defects)) {
		return u.AppendCorrection(s.CorrBuf[:0], s.Defects, s.Erased)
	}
	return u.appendGiven(s.CorrBuf[:0], s.Defects, s.FirstPass)
}

// appendGiven is appendFull of a plain decode of an ascending defect
// list whose first growth pass is given: first lists the edges that pass
// completes, in grow order (Graph.AppendFirstPasses). It may share
// corr's backing array, since growth merges it before peeling appends.
// The output is appendFull's, emit order and sweeps included (doc.go).
func (u *UnionFind) appendGiven(corr []int32, defects []int, first []int32) []int32 {
	if !u.reset(defects) {
		return corr
	}
	u.grow(defects, nil, first)
	return u.peel(corr, defects, nil)
}

// appendPaired is appendFull with the isolated pairs taken out and only
// the rest grown, falling back to appendFull if the rest put support on a
// pair node's edge. Its output is appendFull's for every input (doc.go).
func (u *UnionFind) appendPaired(corr []int32, defects []int) []int32 {
	if !u.reset(defects) {
		return corr
	}
	g, mark := u.g, u.mark
	isPaired := u.epoch<<1 | 1
	for _, d := range defects {
		if g.IsBoundary(d) {
			panic("decoder: boundary node cannot be a defect")
		}
		if mark[d]>>1 == u.epoch {
			panic("decoder: duplicate defect")
		}
		mark[d] = u.epoch << 1
	}
	rest, pairs := u.rest[:0], u.pairs[:0]
	for _, d := range defects {
		v := int32(d)
		if mark[v] == isPaired {
			continue // the second defect of a pair taken earlier
		}
		if s := u.soleDefectSlot(v); s >= 0 && (g.oneWeight || int32(g.adjT[s]) == 2*g.wmin) {
			w := g.adjN[s]
			if t := u.soleDefectSlot(w); t >= 0 && g.adjN[t] == v {
				mark[v], mark[w] = isPaired, isPaired
				pairs = append(pairs, peelStep{node: -1, parentEdge: s, parentNode: v})
				continue
			}
		}
		rest = append(rest, d)
	}
	u.rest, u.pairs = rest, pairs
	if len(rest) == 0 {
		// Pairs alone: the one folded pass completes every pair edge, and
		// peel would emit one step per pair, the last pair first.
		u.sweeps = int(g.wmin)
		for i := len(pairs) - 1; i >= 0; i-- {
			corr = append(corr, g.adjE[pairs[i].parentEdge])
		}
		return corr
	}
	u.grow(rest, nil, nil)
	for _, e := range u.dirty {
		if mark[g.endU[e]] == isPaired || mark[g.endV[e]] == isPaired {
			return u.appendFull(corr, defects, nil)
		}
	}
	return u.peel(corr, defects, pairs)
}

// soleDefectSlot returns v's one adjacency slot that reaches a defect of
// this decode, or -1 when none or more than one does.
func (u *UnionFind) soleDefectSlot(v int32) int32 {
	g, mark, epoch := u.g, u.mark, u.epoch
	lo, slot := g.off[v], int32(-1)
	for i, x := range g.adjN[lo:g.off[v+1]] {
		if mark[x]>>1 == epoch {
			if slot >= 0 {
				return -1
			}
			slot = lo + int32(i)
		}
	}
	return slot
}

// grow seeds every defect as an odd singleton on its own boundary list,
// takes the erased edges into the erasure, and runs the growth and merge
// sweeps until no cluster is odd. A non-nil first is the given first
// pass of a plain decode (appendGiven): its completions stand in for the
// first growth sweep, and the support that pass laid — wmin per defect
// endpoint — is never stored but read back from the defect marks
// whenever a later pass visits an edge.
func (u *UnionFind) grow(defects, erased []int, first []int32) {
	g := u.g
	node, edge, mark := u.node, u.edge, u.mark
	given := first != nil
	defect := u.epoch << 1 // mark of a defect of this decode
	for i, d := range defects {
		v := int32(d)
		if g.IsBoundary(d) {
			panic("decoder: boundary node cannot be a defect")
		}
		u.touch(v)
		if node[v].flags != 0 {
			panic("decoder: duplicate defect")
		}
		if given {
			if i > 0 && d < defects[i-1] {
				panic("decoder: a given first pass needs an ascending defect list")
			}
			mark[v] = defect
		}
		node[v].flags = 3 // cluster parity odd + live defect
		u.pushBoundary(v, v)
	}
	endU, endV := g.endU, g.endV
	// Seed the erasure: every erased edge is fully grown from the start,
	// its endpoints absorbed and united, exactly as if growth had crossed
	// it — so the growth loop and the peeling pass need no special cases.
	for _, e := range erased {
		ee := int32(e)
		if edge[ee] != 0 {
			continue // duplicate erased edge
		}
		edge[ee] = uint16(2 * g.Weight(e))
		u.dirty = append(u.dirty, ee)
		u.merge(ee, endU[ee], endV[ee])
	}
	// Collect the initially-odd roots (in first-touch order —
	// deterministic). Grounded clusters (those holding an open-boundary
	// node) never count as odd: the boundary absorbs their parity, so
	// they stop growing. Across sweeps the odd list is maintained
	// incrementally: a cluster can only be odd after a merge sweep if it
	// swallowed a previously-odd cluster (odd+odd cancels, even clusters
	// neither grow nor change parity on their own), so re-deriving the
	// next sweep's odd roots from the previous list — instead of
	// rescanning every cluster ever created — keeps the collect cost
	// proportional to the live frontier.
	odd := u.odd[:0]
	for _, r := range u.touched {
		if node[r].parent == r && node[r].flags&5 == 1 {
			odd = append(odd, r)
		}
	}
	off, adjE, adjN, adjT := g.off, g.adjE, g.adjN, g.adjT
	dirty := u.dirty
	wmin := int(g.wmin)
	// The first pass folds the seed sweeps: from zero support no edge can
	// complete before half-step sweep wmin (an edge gains at most 2 per
	// sweep, every target is at least 2·wmin), and in sweep wmin exactly
	// the weight-wmin edges visited from both ends complete, each on its
	// second visit — so one pass adding wmin per visit leaves the same
	// support, dirty and grown order and boundary lists as wmin half-step
	// passes (the full argument is in doc.go). Every later pass adds 1;
	// on unit-weight graphs wmin is 1 and nothing is folded. A given
	// first pass is that pass's grown list; its support is the marks'.
	step := uint16(wmin)
	for len(odd) > 0 {
		// Growth sweep: every ungrown edge incident to an odd cluster's
		// boundary nodes gains step half-steps of support. Edges reaching
		// full support (2·weight) queue a merge; a node whose incident
		// edges are all fully grown leaves the boundary for good. A given
		// decode's support is the stored part plus the marks' wmin per
		// defect endpoint, summed in int.
		u.sweeps += int(step)
		grown := first
		if first == nil {
			grown = u.grown[:0]
			bnd := u.bnd
			open := false // some visited edge is still short of its target
			for _, r := range odd {
				nr := &node[r]
				nr.flags &^= 8
				var keptHead, keptTail int32 = -1, -1
				for idx := nr.bndHead; idx >= 0; {
					cell := bnd[idx]
					lo := off[cell.node]
					own := 0 // given support cell.node lends each of its edges
					if given && mark[cell.node] == defect {
						own = wmin
					}
					keep := false
					for i, e := range adjE[lo:off[cell.node+1]] {
						stored := edge[e]
						sup := int(stored)
						if given {
							sup += own
							if mark[adjN[lo+int32(i)]] == defect {
								sup += wmin
							}
						}
						target := int(adjT[lo+int32(i)])
						if sup >= target {
							continue
						}
						if stored == 0 {
							dirty = append(dirty, e)
						}
						edge[e] = stored + step
						if sup+int(step) == target {
							grown = append(grown, e)
						} else {
							keep = true
						}
					}
					if keep {
						open = true
						if keptTail < 0 {
							keptHead = idx
						} else {
							bnd[keptTail].next = idx
						}
						keptTail = idx
						bnd[idx].next = -1
					}
					idx = cell.next
				}
				nr.bndHead = keptHead
				nr.bndTail = keptTail
			}
			u.grown = grown
			if !open && len(grown) == 0 {
				// No edge gained support. Cannot happen for a valid syndrome
				// on a connected graph: an odd cluster always has a boundary
				// to grow.
				u.dirty = dirty
				panic("decoder: growth stalled with odd clusters")
			}
		}
		first, step = nil, 1
		// Merge sweep, in grow order: record the erasure adjacency and
		// unite the endpoint clusters.
		for _, e := range grown {
			u.merge(e, endU[e], endV[e])
		}
		// Re-derive the odd roots from the previous list (see above),
		// deduplicating merged roots with flag bit 3 — set while a root
		// is queued, cleared as the growth sweep picks it up.
		next := odd[:0]
		for _, r := range odd {
			rr := u.find(r)
			if node[rr].flags&13 == 1 {
				node[rr].flags |= 8
				next = append(next, rr)
			}
		}
		odd = next
	}
	u.dirty, u.odd = dirty, odd
}

// merge takes fully-grown edge e = (a, b) into the erasure: endpoints
// not yet in any cluster are absorbed, the edge is logged with its
// endpoints' erasure degrees for the CSR build at peel time, and the two
// clusters are united.
func (u *UnionFind) merge(e, a, b int32) {
	u.absorb(a)
	u.absorb(b)
	u.node[a].eraDeg++
	u.node[b].eraDeg++
	u.allGrown = append(u.allGrown, e)
	if ra, rb := u.find(a), u.find(b); ra != rb {
		u.union(ra, rb)
	}
}

// absorb makes sure node v belongs to some cluster: a node first reached
// by cluster growth becomes a parity-0 singleton boundary node, and the
// following union folds it into the grower.
func (u *UnionFind) absorb(v int32) {
	if u.node[v].stamp>>1 == u.epoch {
		return
	}
	u.touch(v)
	u.pushBoundary(v, v)
}

// union merges the clusters rooted at ra and rb (by size, ties to the
// smaller id), adding parities (grounded flags OR) and splicing boundary
// lists in O(1).
func (u *UnionFind) union(ra, rb int32) {
	node := u.node
	if node[ra].size < node[rb].size || (node[ra].size == node[rb].size && rb < ra) {
		ra, rb = rb, ra
	}
	a, b := &node[ra], &node[rb]
	b.parent = ra
	a.size += b.size
	a.flags ^= b.flags & 1
	a.flags |= b.flags & 4
	if b.bndHead >= 0 {
		if a.bndTail < 0 {
			a.bndHead = b.bndHead
		} else {
			u.bnd[a.bndTail].next = b.bndHead
		}
		a.bndTail = b.bndTail
	}
}

// peel lays the grown (erasure) adjacency out in CSR form, walks a
// spanning forest of it and peels it leaf-first: a leaf carrying a
// defect contributes its tree edge to the correction and hands its
// defect to the parent. A closed cluster has even parity, so its defects
// cancel pairwise inside the forest; a grounded cluster roots its tree
// at an open-boundary node, so any unpaired defect drains onto the
// boundary and is absorbed there. Correction edges are appended to corr.
// An isolated pair (appendPaired) is one step, node -1, whose parentEdge
// is the pair edge's adjacency slot: it emits the edge where the full
// decode's tree from its first defect would; the second defect, marked
// 2·epoch+1 (no node is on the full path), roots nothing.
func (u *UnionFind) peel(corr []int32, defects []int, pairs []peelStep) []int32 {
	g := u.g
	node := u.node
	// CSR build: offsets in first-touch node order, then one scatter
	// pass over the grown edges (eraStart ends one past each node's
	// block; the block start is eraStart-eraDeg).
	pos := int32(0)
	for _, v := range u.touched {
		node[v].eraStart = pos
		pos += node[v].eraDeg
	}
	n := int(pos)
	if cap(u.csrEdge) < n {
		u.csrEdge = make([]int32, n)
		u.csrNode = make([]int32, n)
	}
	csrEdge, csrNode := u.csrEdge[:n], u.csrNode[:n]
	for _, e := range u.allGrown {
		a, b := g.endU[e], g.endV[e]
		csrEdge[node[a].eraStart], csrNode[node[a].eraStart] = e, b
		node[a].eraStart++
		csrEdge[node[b].eraStart], csrNode[node[b].eraStart] = e, a
		node[b].eraStart++
	}
	visited := u.epoch<<1 | 1
	u.order = u.order[:0]
	// Boundary nodes that joined the erasure root their trees first (in
	// ascending node order — deterministic), so every grounded cluster's
	// DFS root is a boundary node.
	for _, b := range g.bndList {
		if node[b].stamp>>1 == u.epoch {
			u.peelRoot(b, visited)
		}
	}
	paired := u.epoch<<1 | 1
	for _, d := range defects {
		v := int32(d)
		switch {
		case len(pairs) > 0 && pairs[0].parentNode == v:
			u.order = append(u.order, pairs[0])
			pairs = pairs[1:]
		case u.mark[v] != paired:
			u.peelRoot(v, visited)
		}
	}
	for i := len(u.order) - 1; i >= 0; i-- {
		step := u.order[i]
		if step.node < 0 {
			corr = append(corr, g.adjE[step.parentEdge])
			continue
		}
		if step.parentEdge < 0 || node[step.node].flags&2 == 0 {
			continue
		}
		corr = append(corr, step.parentEdge)
		node[step.node].flags &^= 2
		node[step.parentNode].flags ^= 2
	}
	return corr
}

// peelRoot grows one DFS tree of the erasure forest from root (skipped
// if the root was already claimed by an earlier tree).
func (u *UnionFind) peelRoot(root int32, visited uint32) {
	node := u.node
	if node[root].stamp == visited {
		return
	}
	node[root].stamp = visited
	stack := append(u.stack[:0], root)
	order := append(u.order, peelStep{node: root, parentEdge: -1, parentNode: -1})
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		end := node[v].eraStart
		for i := end - node[v].eraDeg; i < end; i++ {
			w := u.csrNode[i]
			if node[w].stamp == visited {
				continue
			}
			node[w].stamp = visited
			order = append(order, peelStep{node: w, parentEdge: u.csrEdge[i], parentNode: v})
			stack = append(stack, w)
		}
	}
	u.stack, u.order = stack, order
}

// bumpEpoch advances the scratch epoch, clearing stamps and marks on
// wraparound of the 30-bit epoch so stale ones can never collide.
func (u *UnionFind) bumpEpoch() {
	u.epoch++
	if u.epoch >= 1<<30 {
		for i := range u.node {
			u.node[i].stamp = 0
		}
		clear(u.mark)
		u.epoch = 1
	}
}
