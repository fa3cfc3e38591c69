package decoder

import (
	"slices"
	"sync"
)

// MaxWeight is the largest edge weight a Graph takes: the union-find
// growth state counts support up to 2·weight in a uint16.
const MaxWeight = 32767

// Graph is a decoding graph in compressed adjacency form: detectors
// (checks) are nodes, physical qubits are edges between the two checks
// they can flip. Every edge carries a positive integer weight (a scaled
// log-likelihood ratio; 1 everywhere for uniform noise). It is immutable
// after construction (apart from the first-pass sweep's table, built
// once on first use) and safely shared by any number of concurrent
// decoder instances; it holds no decode scratch.
type Graph struct {
	nodes int
	endU  []int32 // edge e runs endU[e] — endV[e]
	endV  []int32
	off   []int32  // CSR offsets into adjE, len nodes+1
	adjE  []int32  // incident edge ids, grouped by node
	adjN  []int32  // the node across each adjE slot
	adjT  []uint16 // full-support target 2·weight of each adjE slot's edge
	wmin  int32    // smallest edge weight, 1 on an edgeless graph

	// oneWeight: every edge has the same weight, so any edge is a
	// lightest one and the isolated-pair test never loads a weight.
	oneWeight bool

	// The first-pass sweep's slots (AppendFirstPasses), built by its
	// first call: bit s of light is set when adjacency slot s holds a
	// lightest edge to a smaller node.
	lightOnce sync.Once
	light     []uint64

	// Open-boundary support (sliding-window decoding): boundary nodes
	// absorb defect parity, so a cluster containing one never counts as
	// odd. bnd is nil on closed graphs, whose bndMin is nodes, so
	// IsBoundary never loads it; space-time graphs put their one boundary
	// node last, so no defect does either.
	bnd     []bool
	bndMin  int     // smallest boundary node id, nodes when there is none
	bndList []int32 // boundary node ids in ascending order
}

// NewGraph builds a graph from the edge-endpoint table: edge e connects
// ends[e][0] and ends[e][1]. Adjacency lists are laid out in ascending
// (node, edge) order, which fixes the traversal order every decoder pass
// uses — the root of the package's determinism contract.
//
// weights gives each edge an integer weight from 1 to MaxWeight (nil:
// all 1). Weights are the growth currency of the union-find decoder: an
// edge of weight w needs 2w half-steps of support to join the erasure,
// so non-uniform error channels (data vs measurement errors in a
// space-time volume) steer the clusters along the likelier paths.
//
// boundary lists the open-boundary (virtual) nodes (nil: a closed
// graph): defect parity reaching a boundary node is absorbed rather than
// matched, the construction a sliding decode window needs at its open
// future edge (detectors there may pair with faults that have not
// happened yet) and an open code at its rough edges. Boundary nodes
// cannot themselves be defects; clusters containing one are "grounded"
// and stop growing, and peeling drains their unpaired defects into the
// boundary.
func NewGraph(nodes int, ends [][2]int32, weights []int32, boundary []int) *Graph {
	if weights != nil && len(weights) != len(ends) {
		panic("decoder: weight count does not match edge count")
	}
	g := &Graph{
		nodes:  nodes,
		endU:   make([]int32, len(ends)),
		endV:   make([]int32, len(ends)),
		off:    make([]int32, nodes+1),
		wmin:   1,
		bndMin: nodes,
	}
	weight := make([]int32, len(ends))
	for e, uv := range ends {
		if uv[0] < 0 || uv[1] < 0 || int(uv[0]) >= nodes || int(uv[1]) >= nodes || uv[0] == uv[1] {
			panic("decoder: bad edge endpoints")
		}
		w := int32(1)
		if weights != nil {
			w = weights[e]
		}
		if w < 1 {
			panic("decoder: edge weight must be positive")
		}
		if w > MaxWeight {
			panic("decoder: edge weight above MaxWeight")
		}
		g.endU[e], g.endV[e] = uv[0], uv[1]
		weight[e] = w
		g.off[uv[0]+1]++
		g.off[uv[1]+1]++
	}
	if len(ends) > 0 {
		g.wmin = slices.Min(weight)
	}
	g.oneWeight = !slices.ContainsFunc(weight, func(w int32) bool { return w != g.wmin })
	for v := 0; v < nodes; v++ {
		g.off[v+1] += g.off[v]
	}
	g.adjE = make([]int32, 2*len(ends))
	g.adjN = make([]int32, 2*len(ends))
	g.adjT = make([]uint16, 2*len(ends))
	cursor := make([]int32, nodes)
	copy(cursor, g.off[:nodes])
	for e := range ends {
		u, v := g.endU[e], g.endV[e]
		t := uint16(2 * weight[e]) // weight <= MaxWeight
		g.adjE[cursor[u]], g.adjN[cursor[u]], g.adjT[cursor[u]] = int32(e), v, t
		cursor[u]++
		g.adjE[cursor[v]], g.adjN[cursor[v]], g.adjT[cursor[v]] = int32(e), u, t
		cursor[v]++
	}
	if len(boundary) == 0 {
		return g
	}
	g.bnd = make([]bool, nodes)
	for _, b := range boundary {
		if b < 0 || b >= nodes {
			panic("decoder: boundary node out of range")
		}
		if !g.bnd[b] {
			g.bnd[b] = true
			g.bndList = append(g.bndList, int32(b))
		}
	}
	slices.Sort(g.bndList)
	g.bndMin = int(g.bndList[0])
	return g
}

// Nodes returns the detector count.
func (g *Graph) Nodes() int { return g.nodes }

// Closed reports whether the graph has no open-boundary node. On a
// closed connected graph only an even number of defects is a syndrome;
// callers holding untrusted defect sets check that before decoding.
func (g *Graph) Closed() bool { return len(g.bndList) == 0 }

// IsBoundary reports whether node v is an open-boundary node.
func (g *Graph) IsBoundary(v int) bool { return v >= g.bndMin && g.bnd[v] }

// Edges returns the qubit-edge count.
func (g *Graph) Edges() int { return len(g.endU) }

// Ends returns the two endpoints of edge e.
func (g *Graph) Ends(e int) (int, int) { return int(g.endU[e]), int(g.endV[e]) }

// Weight returns the growth weight of edge e, read off the first
// endpoint's adjacency slots.
func (g *Graph) Weight(e int) int {
	s := g.off[g.endU[e]]
	for g.adjE[s] != int32(e) {
		s++
	}
	return int(g.adjT[s]) / 2
}
