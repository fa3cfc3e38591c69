package decoder

// UnionFind is a weighted-growth union-find decoder (Delfosse–Nickerson
// style) over a fixed decoding graph. Decode cost is near-linear in the
// size of the grown region around the syndrome, not in the graph, so a
// sparse defect set on a large lattice decodes in microseconds where
// matching decoders pay at least O(defects²).
//
// A UnionFind holds per-graph scratch arrays and is NOT safe for
// concurrent use; give each worker its own instance (they can all share
// one *Graph). Scratch is recycled across calls with epoch stamps, so a
// Decode touches only the arrays' used entries; per-node cluster state is
// packed into one 16-byte record so the pointer-chasing hot loops touch
// one cache line per node.
type UnionFind struct {
	g *Graph

	// node[v] is all cluster state of node v. stamp encodes the epoch the
	// record is valid for (2·epoch when touched, 2·epoch+1 once visited
	// by the peeling pass). flags bit 0 is the cluster defect parity (at
	// roots), bit 1 the node's live defect flag during peeling, bit 2 the
	// grounded flag (at roots): the cluster contains an open-boundary
	// node, which absorbs its parity, so it never grows.
	node []ufNode

	// Edge growth state: support counts half-steps of growth; an edge of
	// weight w is fully grown (in the erasure) at support 2w, so
	// unit-weight graphs keep the classic 0→1→2 progression and heavier
	// edges take proportionally more sweeps to cross. Kept deliberately
	// narrow — two bytes per edge — so the random-access loads of the
	// growth hot loop stay cache-resident; edges that gained support are
	// listed in dirty and zeroed at the start of the next decode instead
	// of being epoch-stamped.
	sup   []uint16
	dirty []int32

	// uni is the shared full-support target when every edge of the graph
	// has the same weight (the common case: p = q collapses to a
	// unit-weight graph), letting the growth loop skip the per-edge
	// target load. Zero on mixed-weight graphs.
	uni uint16

	// wmin is the graph's smallest edge weight: the number of half-step
	// sweeps the first growth pass of a decode stands for (see run).
	wmin uint16

	// sweeps counts the half-step growth sweeps of the last Decode; a
	// pure-erasure syndrome (every defect inside an even-parity erased
	// component) leaves it at 0 — the peeling-only fast path.
	sweeps int

	// Boundary lists: cluster members that may still have ungrown
	// incident edges, kept as arena linked lists headed at the root
	// (head, tail), so a union concatenates in O(1).
	bndHead []int32
	bndTail []int32
	bndNode []int32
	bndNext []int32

	// Erasure adjacency, in CSR form rebuilt at peel time: allGrown
	// collects every fully-grown edge in completion order, eraDeg counts
	// per-node incidences as they complete (valid when eraSeen holds the
	// epoch), and two scatter passes lay the adjacency out contiguously
	// in csrEdge/csrNode — so peeling walks exactly the grown region in
	// cache order and never rescans graph adjacency.
	eraSeen  []uint32
	eraDeg   []int32
	eraStart []int32
	allGrown []int32
	csrEdge  []int32
	csrNode  []int32

	// Per-root extent of the grown region (valid at roots, merged by
	// union): the smallest and largest node id the cluster has touched.
	// Extraction's band filter is an O(1) test per root against these,
	// so a decode with nothing retainable pays nothing per node.
	minT []int32
	maxT []int32

	// Intrusive per-cluster member lists (head/tail valid at roots,
	// next chained through every member, spliced O(1) by union).
	// Extraction walks exactly the candidate clusters' nodes through
	// these instead of filtering the full touched log with a find per
	// node — the difference between O(candidate nodes) and O(window
	// nodes) per warm decode.
	memHead []int32
	memTail []int32
	memNext []int32

	// Guard support (incremental window decoding): nodes stamped with the
	// current epoch are barred from growth contact. The first touch of a
	// guarded node — or the first half-step of support on an edge whose
	// far endpoint is guarded — flags a conflict and aborts the decode,
	// recording the guarded node that was hit so the caller can release
	// just the cached cluster owning it (the warm-start sub-window
	// re-decode) instead of rebuilding its whole window.
	guardSeen    []uint32
	guardOn      bool
	conflict     bool
	conflictNode int32

	// First-touch log of every node reached this decode; doubles as the
	// node iteration order for the CSR build and the extraction scatter.
	touched []int32

	// Component-extraction scratch: candidate roots, comp index per
	// root, and per-candidate counts / selection state of the band
	// filter.
	compSeen []uint32
	compOf   []int32
	cands    []int32
	ccPairs  [][2]int32
	cNode    []int32
	cDef     []int32
	cCorr    []int32
	cSel     []int32

	// Correction edges of the last decode, in peel emit order.
	corrBuf []int32

	epoch uint32

	// Reusable worklists.
	clusters []int32
	odd      []int32
	grown    []int32
	stack    []int32
	order    []peelStep
}

type ufNode struct {
	parent int32
	size   int32
	stamp  uint32
	flags  uint32
}

type peelStep struct {
	node, parentEdge, parentNode int32
}

// NewUnionFind returns a decoder instance over g.
func NewUnionFind(g *Graph) *UnionFind {
	u := &UnionFind{
		g:        g,
		node:     make([]ufNode, g.nodes),
		sup:      make([]uint16, g.Edges()),
		bndHead:  make([]int32, g.nodes),
		bndTail:  make([]int32, g.nodes),
		eraSeen:  make([]uint32, g.nodes),
		eraDeg:   make([]int32, g.nodes),
		eraStart: make([]int32, g.nodes),
		minT:     make([]int32, g.nodes),
		maxT:     make([]int32, g.nodes),
		memHead:  make([]int32, g.nodes),
		memTail:  make([]int32, g.nodes),
		memNext:  make([]int32, g.nodes),
	}
	u.wmin = 1
	if len(g.grow) > 0 {
		u.uni = uint16(g.grow[0])
		lo := g.grow[0]
		for _, t := range g.grow {
			if t > 65535 {
				panic("decoder: edge weight too large for growth state")
			}
			if uint16(t) != u.uni {
				u.uni = 0
			}
			lo = min(lo, t)
		}
		u.wmin = uint16(lo / 2)
	}
	return u
}

// GrowthSweeps returns the number of half-step growth sweeps the last
// Decode (or DecodeErased) ran: the unit is one half-step of support on
// every boundary edge of every odd cluster, however many of them one pass
// over the boundary stood for (the first pass of a decode covers the
// graph's smallest weight in sweeps — see run). Zero means the
// peeling-only fast path: every defect was already inside an even-parity
// erased cluster.
func (u *UnionFind) GrowthSweeps() int { return u.sweeps }

// Components is the post-decode cluster extraction of a DecodeGuarded
// call: the retainable clusters of the final forest, each with its
// touched nodes, its defects, and its correction edges — everything a
// sliding-window caller needs to carry a cluster across a slide
// (persistent-forest mode). A cluster is retainable when it is not
// grounded and every touched node lies inside the caller's band
// [Lo, Hi); the filter is an O(1) extent test per cluster inside the
// extraction, so a decode with nothing retainable costs O(clusters),
// not O(grown region).
//
// Extraction is capacity-bounded: the capacities of NodeOff, Node, Def
// and Corr (set once with Init) are the budget, and a cluster that
// would overflow any of them is skipped — later, smaller clusters may
// still fit. The skip rule is a pure function of the decode, so two
// decoders with the same budgets extract identical sets. A zero-value
// Components has zero budget and extracts nothing (Conflict still
// reports). The flat CSR layout (Off slices index the value slices)
// and the fixed budgets make extraction allocation-free and keep a
// resident Components at a constant footprint.
//
// Clusters appear in root-creation order (the order the surviving
// roots were first touched), members in first-touch order, defects in
// defect-list order, corrections in emit order — all deterministic
// functions of (graph, defects, erasure).
type Components struct {
	// Conflict reports that the decode aborted on guard contact; every
	// other field is empty and the shot's correction is invalid.
	// ConflictNode is the guarded node the growth hit — the warm-start
	// caller's handle for releasing exactly the cached cluster that
	// interacted, rather than its whole forest. It is -1 while the
	// decode is clean.
	Conflict     bool
	ConflictNode int32

	// Lo, Hi is the retention band: a cluster touching any node outside
	// [Lo, Hi) is not extracted. Set by the caller before the decode.
	Lo, Hi int32

	NodeOff []int32 // len N+1; cluster i's touched nodes are Node[NodeOff[i]:NodeOff[i+1]]
	Node    []int32
	DefOff  []int32
	Def     []int32
	CorrOff []int32
	Corr    []int32
}

// Init sets the retention band and allocates the extraction arrays at
// their fixed budgets: at most `clusters` clusters, `nodes` touched
// nodes, `defs` defects and `corrs` correction edges in total.
func (c *Components) Init(lo, hi int32, clusters, nodes, defs, corrs int) {
	c.Lo, c.Hi = lo, hi
	c.NodeOff = make([]int32, 0, clusters+1)
	c.DefOff = make([]int32, 0, clusters+1)
	c.CorrOff = make([]int32, 0, clusters+1)
	c.Node = make([]int32, 0, nodes)
	c.Def = make([]int32, 0, defs)
	c.Corr = make([]int32, 0, corrs)
}

// N returns the cluster count of the extraction.
func (c *Components) N() int {
	if len(c.NodeOff) == 0 {
		return 0
	}
	return len(c.NodeOff) - 1
}

// reset empties the extraction, keeping the band and the budgets.
func (c *Components) reset() {
	c.Conflict = false
	c.ConflictNode = -1
	c.NodeOff = c.NodeOff[:0]
	c.Node = c.Node[:0]
	c.DefOff = c.DefOff[:0]
	c.Def = c.Def[:0]
	c.CorrOff = c.CorrOff[:0]
	c.Corr = c.Corr[:0]
}

// touch initializes node v's cluster state for the current epoch if it
// has not been seen yet, as a parity-0 singleton with an empty boundary.
// Open-boundary nodes start (and stay) grounded.
func (u *UnionFind) touch(v int32) {
	if u.node[v].stamp>>1 == u.epoch {
		return
	}
	u.node[v] = ufNode{parent: v, size: 1, stamp: u.epoch << 1}
	if u.g.bnd != nil && u.g.bnd[v] {
		u.node[v].flags = 4
	}
	u.bndHead[v] = -1
	u.bndTail[v] = -1
	u.minT[v] = v
	u.maxT[v] = v
	u.memHead[v] = v
	u.memTail[v] = v
	u.memNext[v] = -1
	u.touched = append(u.touched, v)
}

// find returns the root of v's cluster with path compression.
func (u *UnionFind) find(v int32) int32 {
	for u.node[v].parent != v {
		u.node[v].parent = u.node[u.node[v].parent].parent
		v = u.node[v].parent
	}
	return v
}

// pushBoundary appends node w to root r's boundary list.
func (u *UnionFind) pushBoundary(r, w int32) {
	u.bndNode = append(u.bndNode, w)
	u.bndNext = append(u.bndNext, -1)
	idx := int32(len(u.bndNode)) - 1
	if u.bndTail[r] < 0 {
		u.bndHead[r] = idx
	} else {
		u.bndNext[u.bndTail[r]] = idx
	}
	u.bndTail[r] = idx
}

// Decode grows clusters around the defects until every cluster holds an
// even number of them, then peels the grown region into a correction,
// calling emit once per correction edge. The defect list must be the
// syndrome of some error pattern (even total parity on a closed graph);
// emit receives each edge at most once, in a deterministic order that
// depends only on the defect list.
func (u *UnionFind) Decode(defects []int, emit func(edge int)) {
	u.DecodeErased(defects, nil, emit)
}

// DecodeErased is Decode with erasure information: the listed edges are
// known fault locations (leaked or erased qubits) and enter the erasure
// at full support before any growth. Clusters whose defects are already
// paired inside the erased components decode by peeling alone; only the
// odd remainder grows. Erased edges may be emitted in the correction
// even when no cluster grows.
func (u *UnionFind) DecodeErased(defects, erased []int, emit func(edge int)) {
	u.run(defects, erased, nil)
	for _, e := range u.corrBuf {
		emit(int(e))
	}
}

// DecodeGuarded is the incremental-window entry point: DecodeErased with
// the correction appended to corr (returned re-sliced, so a caller-owned
// buffer makes the steady state allocation-free), an optional guard node
// set, and an optional post-decode cluster extraction into comps.
//
// Guard nodes are the touched region of clusters a caller cached from an
// earlier, disjoint decode. If growth touches a guarded node — or puts
// the first half-step of support on an edge one of whose endpoints is
// guarded — the cached clusters would have interacted with this
// syndrome: the decode aborts, comps.Conflict is set, and ok is false
// (the returned corr is empty). Callers recover by re-decoding the full
// defect set without a guard. Defects themselves must not be guarded.
//
// When comps is non-nil and the decode completes, comps receives the
// cluster extraction (see Components).
func (u *UnionFind) DecodeGuarded(defects, erased []int, guard []int32, corr []int32, comps *Components) ([]int32, bool) {
	if comps != nil {
		comps.reset()
	}
	if !u.run(defects, erased, guard) {
		if comps != nil {
			comps.Conflict = true
			comps.ConflictNode = u.conflictNode
		}
		return corr[:0], false
	}
	if comps != nil {
		u.extract(comps)
	}
	return append(corr, u.corrBuf...), true
}

// run is the shared decode core: seeds, grows, merges and peels into
// u.corrBuf. It returns false when the guard flags a conflict (the
// scratch is left mid-decode; the next epoch bump invalidates it all).
func (u *UnionFind) run(defects, erased []int, guard []int32) bool {
	u.sweeps = 0
	u.conflict = false
	u.conflictNode = -1
	u.corrBuf = u.corrBuf[:0]
	u.touched = u.touched[:0]
	u.clusters = u.clusters[:0]
	// Zero the support the previous decode (including an aborted guarded
	// one) left behind — touching only the edges it actually grew.
	for _, e := range u.dirty {
		u.sup[e] = 0
	}
	u.dirty = u.dirty[:0]
	if len(defects) == 0 {
		return true
	}
	u.bumpEpoch()
	u.guardOn = len(guard) > 0
	if u.guardOn {
		if u.guardSeen == nil {
			u.guardSeen = make([]uint32, u.g.nodes)
		}
		for _, v := range guard {
			u.guardSeen[v] = u.epoch
		}
	}
	u.grown = u.grown[:0]
	u.allGrown = u.allGrown[:0]
	u.bndNode = u.bndNode[:0]
	u.bndNext = u.bndNext[:0]
	for _, d := range defects {
		v := int32(d)
		if u.g.bnd != nil && u.g.bnd[v] {
			panic("decoder: boundary node cannot be a defect")
		}
		if u.guardOn && u.guardSeen[v] == u.epoch {
			panic("decoder: guarded node cannot be a defect")
		}
		u.touch(v)
		if u.node[v].flags != 0 {
			panic("decoder: duplicate defect")
		}
		u.node[v].flags = 19 // cluster parity odd + live defect + seeded defect (bit 4, survives peel)
		u.pushBoundary(v, v)
		u.clusters = append(u.clusters, v)
	}
	g := u.g
	// Seed the erasure: every erased edge is fully grown from the start,
	// its endpoints absorbed and united, exactly as if growth had crossed
	// it — so the growth loop and the peeling pass need no special cases.
	for _, e := range erased {
		ee := int32(e)
		target := uint16(g.grow[ee])
		if u.sup[ee] >= target {
			continue // duplicate erased edge
		}
		u.sup[ee] = target
		u.dirty = append(u.dirty, ee)
		a, b := g.endU[ee], g.endV[ee]
		if u.guardOn && (u.guardSeen[a] == u.epoch || u.guardSeen[b] == u.epoch) {
			u.conflict = true
			if u.guardSeen[a] == u.epoch {
				u.conflictNode = a
			} else {
				u.conflictNode = b
			}
			return false
		}
		u.eraAdd(ee, a, b)
		u.absorb(a)
		u.absorb(b)
		ra, rb := u.find(a), u.find(b)
		if ra != rb {
			u.union(ra, rb)
		}
	}
	off, adjE, adjN, growA := g.off, g.adjE, g.adjN, g.grow
	sup := u.sup
	uni := u.uni
	guardOn := u.guardOn
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
	u.odd = u.odd[:0]
	for _, r := range u.clusters {
		if u.find(r) == r && u.node[r].flags&5 == 1 {
			u.odd = append(u.odd, r)
		}
	}
	// The first pass folds the seed sweeps: from zero support no edge can
	// complete before half-step sweep wmin (an edge gains at most 2 per
	// sweep, every target is at least 2·wmin), and in sweep wmin exactly
	// the weight-wmin edges visited from both ends complete, each on its
	// second visit — so one pass adding wmin per visit leaves the same
	// support, dirty and grown order, boundary lists and guard contact as
	// wmin half-step passes (the full argument is in doc.go). Every later
	// pass adds 1; on unit-weight graphs wmin is 1 and nothing is folded.
	step := u.wmin
	for len(u.odd) > 0 {
		// Growth sweep: every ungrown edge incident to an odd cluster's
		// boundary nodes gains step half-steps of support. Edges reaching
		// full support (2·weight) queue a merge; a node whose incident
		// edges are all fully grown leaves the boundary for good.
		u.sweeps++
		u.grown = u.grown[:0]
		advanced := false
		for _, r := range u.odd {
			u.node[r].flags &^= 8
			var keptHead, keptTail int32 = -1, -1
			for idx := u.bndHead[r]; idx >= 0; {
				v := u.bndNode[idx]
				next := u.bndNext[idx]
				open := false
				ae := adjE[off[v]:off[v+1]]
				for i, e := range ae {
					target := uni
					if target == 0 {
						target = uint16(growA[e])
					}
					st := sup[e]
					if st >= target {
						continue
					}
					if st == 0 {
						if guardOn && u.guardSeen[adjN[off[v]+int32(i)]] == u.epoch {
							// First support on an edge into the guarded
							// region: the cached cluster on the far side
							// would have contributed support of its own.
							u.conflict = true
							u.conflictNode = adjN[off[v]+int32(i)]
							return false
						}
						u.dirty = append(u.dirty, e)
					}
					sup[e] = st + step
					advanced = true
					if st+step == target {
						u.grown = append(u.grown, e)
					} else {
						open = true
					}
				}
				if open {
					if keptTail < 0 {
						keptHead = idx
					} else {
						u.bndNext[keptTail] = idx
					}
					keptTail = idx
					u.bndNext[idx] = -1
				}
				idx = next
			}
			u.bndHead[r] = keptHead
			u.bndTail[r] = keptTail
		}
		if !advanced {
			// Cannot happen for a valid syndrome on a connected graph:
			// an odd cluster always has a boundary to grow.
			panic("decoder: growth stalled with odd clusters")
		}
		// A guard abort above happened in half-step sweep 1; past it, the
		// folded pass has run all of its sweeps.
		u.sweeps += int(step) - 1
		step = 1
		// Merge sweep, in grow order: record the erasure adjacency and
		// unite the endpoint clusters.
		for _, e := range u.grown {
			a, b := g.endU[e], g.endV[e]
			u.eraAdd(e, a, b)
			if u.absorb(a) || u.absorb(b) {
				return false
			}
			ra, rb := u.find(a), u.find(b)
			if ra == rb {
				continue
			}
			u.union(ra, rb)
		}
		// Re-derive the odd roots from the previous list (see above),
		// deduplicating merged roots with flag bit 3 — set while a root
		// is queued, cleared as the growth sweep picks it up.
		next := u.odd[:0]
		for _, r := range u.odd {
			rr := u.find(r)
			if u.node[rr].flags&13 == 1 {
				u.node[rr].flags |= 8
				next = append(next, rr)
			}
		}
		u.odd = next
	}
	u.peel(defects)
	return true
}

// eraAdd records fully-grown edge e: its endpoints' erasure degrees for
// the CSR build at peel time, and the edge itself in completion order.
func (u *UnionFind) eraAdd(e, a, b int32) {
	if u.eraSeen[a] != u.epoch {
		u.eraSeen[a] = u.epoch
		u.eraDeg[a] = 0
	}
	u.eraDeg[a]++
	if u.eraSeen[b] != u.epoch {
		u.eraSeen[b] = u.epoch
		u.eraDeg[b] = 0
	}
	u.eraDeg[b]++
	u.allGrown = append(u.allGrown, e)
}

// absorb makes sure node v belongs to some cluster: a node first reached
// by cluster growth becomes a parity-0 singleton boundary node, and the
// following union folds it into the grower. It reports a guard conflict
// on the first contact with a guarded node.
func (u *UnionFind) absorb(v int32) bool {
	if u.node[v].stamp>>1 == u.epoch {
		return false
	}
	if u.guardOn && u.guardSeen[v] == u.epoch {
		u.conflict = true
		u.conflictNode = v
		return true
	}
	u.touch(v)
	u.pushBoundary(v, v)
	u.clusters = append(u.clusters, v)
	return false
}

// union merges the clusters rooted at ra and rb (by size, ties to the
// smaller id), adding parities (grounded flags OR), merging grown-region
// extents, and splicing boundary lists in O(1).
func (u *UnionFind) union(ra, rb int32) {
	if u.node[ra].size < u.node[rb].size || (u.node[ra].size == u.node[rb].size && rb < ra) {
		ra, rb = rb, ra
	}
	u.node[rb].parent = ra
	u.node[ra].size += u.node[rb].size
	u.node[ra].flags ^= u.node[rb].flags & 1
	u.node[ra].flags |= u.node[rb].flags & 4
	u.minT[ra] = min(u.minT[ra], u.minT[rb])
	u.maxT[ra] = max(u.maxT[ra], u.maxT[rb])
	u.memNext[u.memTail[ra]] = u.memHead[rb]
	u.memTail[ra] = u.memTail[rb]
	if u.bndHead[rb] >= 0 {
		if u.bndTail[ra] < 0 {
			u.bndHead[ra] = u.bndHead[rb]
		} else {
			u.bndNext[u.bndTail[ra]] = u.bndHead[rb]
		}
		u.bndTail[ra] = u.bndTail[rb]
	}
}

// peel lays the grown (erasure) adjacency out in CSR form, walks a
// spanning forest of it and peels it leaf-first: a leaf carrying a
// defect contributes its tree edge to the correction and hands its
// defect to the parent. A closed cluster has even parity, so its defects
// cancel pairwise inside the forest; a grounded cluster roots its tree
// at an open-boundary node, so any unpaired defect drains onto the
// boundary and is absorbed there. Correction edges land in u.corrBuf.
func (u *UnionFind) peel(defects []int) {
	g := u.g
	// CSR build: offsets in first-touch node order, then one scatter
	// pass over the grown edges (eraStart ends one past each node's
	// block; the block start is eraStart[v]-eraDeg[v]).
	pos := int32(0)
	for _, v := range u.touched {
		if u.eraSeen[v] == u.epoch {
			u.eraStart[v] = pos
			pos += u.eraDeg[v]
		}
	}
	n := int(pos)
	if cap(u.csrEdge) < n {
		u.csrEdge = make([]int32, n)
		u.csrNode = make([]int32, n)
	} else {
		u.csrEdge = u.csrEdge[:n]
		u.csrNode = u.csrNode[:n]
	}
	for _, e := range u.allGrown {
		a, b := g.endU[e], g.endV[e]
		u.csrEdge[u.eraStart[a]], u.csrNode[u.eraStart[a]] = e, b
		u.eraStart[a]++
		u.csrEdge[u.eraStart[b]], u.csrNode[u.eraStart[b]] = e, a
		u.eraStart[b]++
	}
	visited := u.epoch<<1 | 1
	u.order = u.order[:0]
	// Boundary nodes that joined the erasure root their trees first (in
	// ascending node order — deterministic), so every grounded cluster's
	// DFS root is a boundary node.
	for _, b := range u.g.bndList {
		if u.eraSeen[b] == u.epoch {
			u.peelRoot(b, visited)
		}
	}
	for _, d := range defects {
		u.peelRoot(int32(d), visited)
	}
	for i := len(u.order) - 1; i >= 0; i-- {
		step := u.order[i]
		if step.parentEdge < 0 || u.node[step.node].flags&2 == 0 {
			continue
		}
		u.corrBuf = append(u.corrBuf, step.parentEdge)
		u.node[step.node].flags &^= 2
		u.node[step.parentNode].flags ^= 2
	}
}

// peelRoot grows one DFS tree of the erasure forest from root (skipped
// if the root was already claimed by an earlier tree).
func (u *UnionFind) peelRoot(root int32, visited uint32) {
	if u.node[root].stamp == visited {
		return
	}
	u.node[root].stamp = visited
	u.stack = append(u.stack[:0], root)
	u.order = append(u.order, peelStep{node: root, parentEdge: -1, parentNode: -1})
	for len(u.stack) > 0 {
		v := u.stack[len(u.stack)-1]
		u.stack = u.stack[:len(u.stack)-1]
		if u.eraSeen[v] != u.epoch {
			continue
		}
		end := u.eraStart[v]
		for i := end - u.eraDeg[v]; i < end; i++ {
			w := u.csrNode[i]
			if u.node[w].stamp == visited {
				continue
			}
			u.node[w].stamp = visited
			u.order = append(u.order, peelStep{node: w, parentEdge: u.csrEdge[i], parentNode: v})
			u.stack = append(u.stack, w)
		}
	}
}

// extract materializes the retainable clusters (see Components): not
// grounded, grown region inside [c.Lo, c.Hi), isolated from every
// non-retained cluster, and fitting the remaining array budgets. The
// candidate test runs over the live roots using the extents tracked
// through union — O(clusters) — and every per-node pass afterwards
// walks only the candidates' member lists, never the full touched
// region, so a dense decode pays for extraction in proportion to what
// it retains. The peel pass leaves parent links and flags intact, so
// find() still recovers the final partition.
//
// The isolation filter is what makes warm-start retention pay in the
// dense regime: an incident edge that carried support this decode
// whose far endpoint settled in a different cluster marks growth
// contact — when the non-retained side re-decodes after the slide it
// regrows the same support and a guard conflict is certain, so a
// candidate in mixed contact is dropped up front instead of buying a
// release wave later. Contact between two candidates is harmless (both
// sides are stripped and guarded together), but a dropped candidate
// becomes non-candidate contact for its neighbours, so recorded
// candidate–candidate pairs cascade to a fixpoint (order-independent:
// drops are monotone).
func (u *UnionFind) extract(c *Components) {
	u.cands = u.cands[:0]
	for _, r := range u.clusters {
		if u.find(r) != r {
			continue
		}
		if u.node[r].flags&4 == 0 && u.minT[r] >= c.Lo && u.maxT[r] < c.Hi {
			u.cands = append(u.cands, r)
		}
	}
	if len(u.cands) == 0 {
		return
	}
	if u.compSeen == nil {
		u.compSeen = make([]uint32, u.g.nodes)
		u.compOf = make([]int32, u.g.nodes)
	}
	n := len(u.cands)
	if cap(u.cDef) < n {
		u.cNode = make([]int32, n)
		u.cDef = make([]int32, n)
		u.cCorr = make([]int32, n)
		u.cSel = make([]int32, n)
	} else {
		u.cNode = u.cNode[:n]
		u.cDef = u.cDef[:n]
		u.cCorr = u.cCorr[:n]
		u.cSel = u.cSel[:n]
	}
	for i, r := range u.cands {
		u.compSeen[r] = u.epoch
		u.compOf[r] = int32(i)
		u.cCorr[i] = 0
	}
	// Per-candidate correction counts (a correction edge belongs to its
	// endpoint's cluster; peel only emits edges inside the erasure, so
	// both endpoints agree).
	for _, e := range u.corrBuf {
		if r := u.find(u.g.endU[e]); u.compSeen[r] == u.epoch {
			u.cCorr[u.compOf[r]]++
		}
	}
	// Streaming selection in candidate order: the O(1) budget test on
	// the cluster size goes first, so only candidates that could still
	// fit walk their member list — one walk that fuses the defect count
	// with the isolation scan. A candidate rejected here (budget or
	// contact) is demoted to non-candidate on the spot, so later
	// candidates see contact with it for what it is: contact with a
	// cluster that will re-decode after the slide.
	g := u.g
	u.ccPairs = u.ccPairs[:0]
	var nodes, defs, corrs int32
	m := 0
	nodeCap, defCap, corrCap := int32(cap(c.Node)), int32(cap(c.Def)), int32(cap(c.Corr))
	for i, r := range u.cands {
		u.cSel[i] = -1
		sz := u.node[r].size
		if m+2 > cap(c.NodeOff) || nodes+sz > nodeCap || corrs+u.cCorr[i] > corrCap {
			u.compSeen[r] = u.epoch - 1
			continue
		}
		dfs := int32(0)
		drop := false
	scan:
		for v := u.memHead[r]; v >= 0; v = u.memNext[v] {
			if u.node[v].flags&16 != 0 {
				dfs++
			}
			ae := g.adjE[g.off[v]:g.off[v+1]]
			for j, e := range ae {
				if u.sup[e] == 0 {
					continue
				}
				nb := g.adjN[g.off[v]+int32(j)]
				if u.node[nb].stamp>>1 != u.epoch {
					continue // support into free space, not cluster contact
				}
				rn := u.find(nb)
				if rn == r {
					continue
				}
				if u.compSeen[rn] == u.epoch {
					u.ccPairs = append(u.ccPairs, [2]int32{r, rn})
					continue
				}
				drop = true
				break scan
			}
		}
		if drop || defs+dfs > defCap {
			u.compSeen[r] = u.epoch - 1
			continue
		}
		u.cDef[i] = dfs
		u.cSel[i] = int32(m)
		m++
		nodes += sz
		defs += dfs
		corrs += u.cCorr[i]
	}
	if m == 0 {
		return
	}
	// Candidate–candidate contact pairs cascade to a fixpoint: a pair
	// whose one side has since been rejected takes the other side down
	// with it (order-independent — drops are monotone). Contact between
	// two retained candidates stays harmless: both sides are stripped
	// and guarded together.
	dropped := false
	for changed := true; changed; {
		changed = false
		for _, p := range u.ccPairs {
			ca, cb := u.compSeen[p[0]] == u.epoch, u.compSeen[p[1]] == u.epoch
			if ca == cb {
				continue
			}
			if ca {
				u.compSeen[p[0]] = u.epoch - 1
			} else {
				u.compSeen[p[1]] = u.epoch - 1
			}
			changed = true
			dropped = true
		}
	}
	if dropped {
		m = 0
		for i, r := range u.cands {
			if u.cSel[i] < 0 {
				continue
			}
			if u.compSeen[r] != u.epoch {
				u.cSel[i] = -1
				continue
			}
			u.cSel[i] = int32(m)
			m++
		}
		if m == 0 {
			return
		}
	}
	// CSR offsets of the selected clusters, then one member-list walk
	// per cluster scattering nodes and defects together, and a pass
	// over the correction buffer — with the count arrays recycled as
	// write cursors.
	c.NodeOff = append(c.NodeOff, 0)
	c.DefOff = append(c.DefOff, 0)
	c.CorrOff = append(c.CorrOff, 0)
	for i, r := range u.cands {
		s := u.cSel[i]
		if s < 0 {
			continue
		}
		c.NodeOff = append(c.NodeOff, c.NodeOff[s]+u.node[r].size)
		c.DefOff = append(c.DefOff, c.DefOff[s]+u.cDef[i])
		c.CorrOff = append(c.CorrOff, c.CorrOff[s]+u.cCorr[i])
		u.cNode[i] = c.NodeOff[s]
		u.cDef[i] = c.DefOff[s]
		u.cCorr[i] = c.CorrOff[s]
	}
	c.Node = c.Node[:c.NodeOff[len(c.NodeOff)-1]]
	c.Def = c.Def[:c.DefOff[len(c.DefOff)-1]]
	c.Corr = c.Corr[:c.CorrOff[len(c.CorrOff)-1]]
	for i, r := range u.cands {
		if u.cSel[i] < 0 {
			continue
		}
		for v := u.memHead[r]; v >= 0; v = u.memNext[v] {
			c.Node[u.cNode[i]] = v
			u.cNode[i]++
			if u.node[v].flags&16 != 0 {
				c.Def[u.cDef[i]] = v
				u.cDef[i]++
			}
		}
	}
	for _, e := range u.corrBuf {
		r := u.find(u.g.endU[e])
		if u.compSeen[r] != u.epoch {
			continue
		}
		if i := u.compOf[r]; u.cSel[i] >= 0 {
			c.Corr[u.cCorr[i]] = e
			u.cCorr[i]++
		}
	}
}

// bumpEpoch advances the scratch epoch, clearing the stamp arrays on
// wraparound of the 30-bit epoch so stale stamps can never collide.
func (u *UnionFind) bumpEpoch() {
	u.epoch++
	if u.epoch >= 1<<30 {
		for i := range u.node {
			u.node[i].stamp = 0
		}
		clear(u.eraSeen)
		if u.guardSeen != nil {
			clear(u.guardSeen)
		}
		if u.compSeen != nil {
			clear(u.compSeen)
		}
		u.epoch = 1
	}
}
