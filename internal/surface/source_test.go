package surface_test

import (
	"fmt"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/spacetime"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// planeLoopSource is the phenomenological source as it was before its
// cost followed the faults: one sampler call per plane, the observed
// syndromes recomputed from the error planes every round. It is the
// reference LayerSource must reproduce bit for bit.
type planeLoopSource struct {
	code         surface.Code
	p, q, pe, qe float64
	smp          frame.Sampler
	active, tmp  bits.Vec
	intact, coin bits.Vec
	cumX, cumZ   []bits.Vec
	diff         *surface.SyndromeDiff
}

func newPlaneLoopSource(code surface.Code, p, q, pe, qe float64, lanes int, smp frame.Sampler) *planeLoopSource {
	s := &planeLoopSource{code: code, p: p, q: q, pe: pe, qe: qe, smp: smp,
		active: bits.NewVec(lanes), tmp: bits.NewVec(lanes),
		intact: bits.NewVec(lanes), coin: bits.NewVec(lanes),
		cumX: bits.NewVecs(code.Qubits(), lanes), cumZ: bits.NewVecs(code.Qubits(), lanes),
		diff: surface.NewSyndromeDiff(code.Checks(), lanes)}
	s.active.SetAll()
	return s
}

func (s *planeLoopSource) flips(p float64, into []bits.Vec) {
	for i := range into {
		s.smp.Bernoulli(p, s.active, s.tmp)
		into[i].Xor(s.tmp)
	}
}

func (s *planeLoopSource) NextLayers(layerX, layerZ []bits.Vec) {
	s.flips(s.p, s.cumX)
	s.flips(s.p, s.cumZ)
	s.code.CheckPlanes(false, s.cumX, s.diff.CurX())
	s.flips(s.q, s.diff.CurX())
	s.code.CheckPlanes(true, s.cumZ, s.diff.CurZ())
	s.flips(s.q, s.diff.CurZ())
	s.diff.Emit(layerX, layerZ)
}

func (s *planeLoopSource) NextLayersErased(layerX, layerZ, eraH, lostX, lostZ []bits.Vec) {
	for e := range eraH {
		s.smp.Bernoulli(s.pe, s.active, eraH[e])
	}
	for _, cum := range [2][]bits.Vec{s.cumX, s.cumZ} {
		for e := range cum {
			s.intact.CopyFrom(s.active)
			s.intact.AndNot(eraH[e])
			s.smp.Bernoulli(s.p, s.intact, s.tmp)
			cum[e].Xor(s.tmp)
		}
		for e := range cum {
			s.smp.Bernoulli(0.5, eraH[e], s.tmp)
			cum[e].Xor(s.tmp)
		}
	}
	for dual, lost := range [2][]bits.Vec{lostX, lostZ} {
		cum, cur := s.cumX, s.diff.CurX()
		if dual == 1 {
			cum, cur = s.cumZ, s.diff.CurZ()
		}
		s.code.CheckPlanes(dual == 1, cum, cur)
		s.flips(s.q, cur)
		for c := range cur {
			s.smp.Bernoulli(s.qe, s.active, lost[c])
		}
		for c := range cur {
			s.smp.Coin(lost[c], s.coin)
			cur[c].AndNot(lost[c])
			cur[c].Or(s.coin)
		}
	}
	s.diff.Emit(layerX, layerZ)
}

func (s *planeLoopSource) CloseLayers(layerX, layerZ []bits.Vec) {
	s.code.CheckPlanes(false, s.cumX, s.diff.CurX())
	s.code.CheckPlanes(true, s.cumZ, s.diff.CurZ())
	s.diff.Emit(layerX, layerZ)
}

func samePlanes(a, b []bits.Vec) bool {
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestLayerSourceMatchesPlaneLoop runs LayerSource beside the per-plane
// loop it replaced on equal sampler streams — every family and schedule
// shape, rates with p = q (one carry through the whole round), p ≠ q (a
// reset at every block) and either rate zero, lane counts around the
// word size, erased rounds interleaved (they update the same syndrome
// planes by whole flip planes) — and demands equal layers every round,
// an equal closing round, equal windings and equal error planes.
func TestLayerSourceMatchesPlaneLoop(t *testing.T) {
	codes := []surface.Code{toric.Cached(4), toric.Cached(5), toric.HookParallel(4),
		surface.Planar(3), surface.Rotated(3), surface.Rotated(5)}
	rates := [][2]float64{{5e-4, 5e-4}, {0.02, 0.02}, {0.02, 0.01}, {0.03, 0}, {0, 0.02}}
	samplers := map[string]func(lanes int) frame.Sampler{
		"aggregate": func(int) frame.Sampler { return frame.NewAggregateSampler(23, 9) },
		"lockstep":  func(lanes int) frame.Sampler { return frame.NewLockstepSampler(23, lanes) },
	}
	const rounds, pe, qe = 40, 0.03, 0.02
	for _, code := range codes {
		for _, pq := range rates {
			for _, lanes := range []int{1, 64, 100, 128} {
				for name, mk := range samplers {
					t.Run(fmt.Sprintf("%s/p=%g,q=%g/lanes=%d/%s", codeLabel(code), pq[0], pq[1], lanes, name), func(t *testing.T) {
						nq, nc := code.Qubits(), code.Checks()
						src := surface.NewLayerSourceErased(code, pq[0], pq[1], pe, qe, lanes, mk(lanes))
						ref := newPlaneLoopSource(code, pq[0], pq[1], pe, qe, lanes, mk(lanes))
						var got, want [5][]bits.Vec // layerX, layerZ, eraH, lostX, lostZ
						for i, n := range [5]int{nc, nc, nq, nc, nc} {
							got[i], want[i] = bits.NewVecs(n, lanes), bits.NewVecs(n, lanes)
						}
						same := func(what string, r int) {
							t.Helper()
							for i := range got {
								if !samePlanes(got[i], want[i]) {
									t.Fatalf("round %d (%s): plane group %d differs from the per-plane loop", r, what, i)
								}
							}
						}
						for r := 0; r < rounds; r++ {
							if r%5 == 3 {
								src.NextLayersErased(got[0], got[1], got[2], got[3], got[4])
								ref.NextLayersErased(want[0], want[1], want[2], want[3], want[4])
								same("erased", r)
								continue
							}
							src.NextLayers(got[0], got[1])
							ref.NextLayers(want[0], want[1])
							same("plain", r)
						}
						src.CloseLayers(got[0], got[1])
						ref.CloseLayers(want[0], want[1])
						same("closing", rounds)
						ex, ez := src.ErrorPlanes()
						if !samePlanes(ex, ref.cumX) || !samePlanes(ez, ref.cumZ) {
							t.Fatal("error planes differ from the per-plane loop")
						}
						gw, ww := bits.NewVecs(4, lanes), bits.NewVecs(4, lanes)
						src.Windings(gw[0], gw[1], gw[2], gw[3])
						code.LogicalPlanes(false, ref.cumX, ww[0], ww[1])
						code.LogicalPlanes(true, ref.cumZ, ww[2], ww[3])
						if !samePlanes(gw, ww) {
							t.Fatal("windings differ from the per-plane loop")
						}
					})
				}
			}
		}
	}
}

// TestResetSourceMatchesFresh: a source that has emitted rounds, its
// errors accumulated and its syndrome generations full, and is then
// Reset onto a sampler emits exactly what a new source on an equal
// sampler does — every round's layers and erasure planes, the closing
// layer and the windings — for the phenomenological source plain and
// erased and the circuit source plain and leaking, on every family.
func TestResetSourceMatchesFresh(t *testing.T) {
	const lanes, used, rounds = 100, 7, 12
	leaky := noise.Uniform(0.01)
	leaky.Leak = 0.02
	kinds := map[string]func(code surface.Code, smp frame.Sampler) spacetime.ResettableFeed{
		"phenomenological": func(code surface.Code, smp frame.Sampler) spacetime.ResettableFeed {
			return surface.NewLayerSource(code, 0.03, 0.02, lanes, smp)
		},
		"erased": func(code surface.Code, smp frame.Sampler) spacetime.ResettableFeed {
			return surface.NewLayerSourceErased(code, 0.03, 0.02, 0.03, 0.03, lanes, smp)
		},
		"circuit": func(code surface.Code, smp frame.Sampler) spacetime.ResettableFeed {
			return surface.NewCircuitSource(code, noise.Uniform(0.01), lanes, smp)
		},
		"leaking": func(code surface.Code, smp frame.Sampler) spacetime.ResettableFeed {
			return surface.NewCircuitSource(code, leaky, lanes, smp)
		},
	}
	for _, code := range []surface.Code{toric.Cached(4), surface.Planar(3), surface.Rotated(3)} {
		for name, mk := range kinds {
			nq, nc := code.Qubits(), code.Checks()
			var got, want [5][]bits.Vec // layerX, layerZ, eraH, lostX, lostZ
			for i, n := range [5]int{nc, nc, nq, nc, nc} {
				got[i], want[i] = bits.NewVecs(n, lanes), bits.NewVecs(n, lanes)
			}
			next := func(s spacetime.ResettableFeed, planes [5][]bits.Vec) {
				if s.Erasing() {
					s.NextLayersErased(planes[0], planes[1], planes[2], planes[3], planes[4])
				} else {
					s.NextLayers(planes[0], planes[1])
				}
			}
			src := mk(code, frame.NewAggregateSampler(5, 1))
			for r := 0; r < used; r++ {
				next(src, got)
			}
			src.Reset(frame.NewAggregateSampler(6, 2))
			ref := mk(code, frame.NewAggregateSampler(6, 2))
			if src.Rounds() != 0 {
				t.Fatalf("%s %s: %d rounds emitted after Reset", codeLabel(code), name, src.Rounds())
			}
			faulted := false
			for r := 0; r <= rounds; r++ {
				what := "closing"
				if r < rounds {
					what = "round"
					next(src, got)
					next(ref, want)
				} else {
					src.CloseLayers(got[0], got[1])
					ref.CloseLayers(want[0], want[1])
				}
				for i := range got {
					if !samePlanes(got[i], want[i]) {
						t.Fatalf("%s %s: %s %d plane group %d differs from a new source's", codeLabel(code), name, what, r, i)
					}
				}
				_, loud := anyDefect(got[0], got[1])
				faulted = faulted || loud
			}
			if !faulted {
				t.Fatalf("%s %s: degenerate, no defect in any round", codeLabel(code), name)
			}
			gw, ww := bits.NewVecs(4, lanes), bits.NewVecs(4, lanes)
			src.Windings(gw[0], gw[1], gw[2], gw[3])
			ref.Windings(ww[0], ww[1], ww[2], ww[3])
			if !samePlanes(gw, ww) {
				t.Fatalf("%s %s: windings differ from a new source's", codeLabel(code), name)
			}
		}
	}
}
