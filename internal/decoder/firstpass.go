package decoder

import (
	mbits "math/bits"

	"ftqc/internal/bits"
)

// Sparse reports whether a plain decode of n defects takes the
// isolated-pair path (the density rule of AppendCorrection), which never
// reads a given first pass.
func (g *Graph) Sparse(n int) bool { return n*sparseK <= g.nodes }

// AppendFirstPasses sweeps the first growth pass of every lane's plain
// decode at once, bit-sliced over the lanes: layers[t][c] holds the lane
// bits of node t·nc + c, every layer nc = len(layers[0]) planes (nodes
// past the last layer hold no defect), and each lane's decode is of its
// nodes in ascending order. For each such decode the pass completes exactly the weight-wmin
// edges joining two defects, each on the visit of its larger end — so
// for every node v and every smaller neighbour y over a lightest edge e,
// in adjacency order, e is appended to lists[lane] for every lane whose
// bits hold both v and y. That is each lane's grow order (doc.go), the
// Shot.FirstPass of its decode. lists holds one list per lane of the
// planes.
func (g *Graph) AppendFirstPasses(lists [][]int32, layers [][]bits.Vec) {
	if len(layers) == 0 || len(layers[0]) == 0 {
		return
	}
	g.lightOnce.Do(g.buildLight)
	nc, words := len(layers[0]), layers[0][0].Words()
	top := min(g.nodes, len(layers)*nc)
	light, off, adjN, adjE := g.light, g.off, g.adjN, g.adjE
	for t := 0; t*nc < top; t++ {
		cur, below := layers[t], layers[max(t-1, 0)]
		for c, pv := range cur[:min(nc, top-t*nc)] {
			if pv.Zero() {
				continue
			}
			v := t*nc + c
			lo, hi := int(off[v]), int(off[v+1])
			for wi := lo >> 6; wi<<6 < hi; wi++ {
				x := light[wi]
				if wi == lo>>6 {
					x &= ^uint64(0) << (lo & 63)
				}
				if (wi+1)<<6 > hi {
					x &= 1<<(hi&63) - 1
				}
				for ; x != 0; x &= x - 1 {
					s := wi<<6 | mbits.TrailingZeros64(x)
					var py bits.Vec
					switch y := int(adjN[s]) - t*nc; {
					case y >= 0:
						py = cur[y]
					case y >= -nc:
						py = below[y+nc]
					default: // an edge spanning layers
						yt := t + (y+1)/nc - 1
						py = layers[yt][y+(t-yt)*nc]
					}
					for k := range words {
						for m := pv.Word(k) & py.Word(k); m != 0; m &= m - 1 {
							lane := k<<6 | mbits.TrailingZeros64(m)
							lists[lane] = append(lists[lane], adjE[s])
						}
					}
				}
			}
		}
	}
}

// buildLight marks every adjacency slot that holds a lightest edge to a
// smaller node.
func (g *Graph) buildLight() {
	g.light = make([]uint64, (len(g.adjN)+63)/64)
	for v := range g.nodes {
		for s := g.off[v]; s < g.off[v+1]; s++ {
			if int(g.adjN[s]) < v && int32(g.adjT[s]) == 2*g.wmin {
				g.light[s>>6] |= 1 << (s & 63)
			}
		}
	}
}
