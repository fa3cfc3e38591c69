package surface_test

// The sampler-stream contract: every committed Monte Carlo figure
// (EXPERIMENTS.md, the benchmark's logical_fail_rate) is a pure function
// of the order in which the two layer sources draw from their sampler.
// The digests below were recorded at commit efc3457 from the toric-only
// phenomenological and fused circuit sources this package's sources
// replaced; a refactor that moves one draw changes a digest.

import (
	"hash/fnv"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// feedDigest hashes, in order, every plane `next` fills over three
// noisy rounds (difference layers, then the erasure planes — left zero
// by the plain sources), the closing round's layers and the four
// winding parities.
func feedDigest(code surface.Code, lanes int, src interface {
	CloseLayers(layerX, layerZ []bits.Vec)
	Windings(pX1, pX2, pZ1, pZ2 bits.Vec)
}, next func(layerX, layerZ, eraH, lostX, lostZ []bits.Vec)) uint64 {
	h := fnv.New64a()
	hash := func(groups ...[]bits.Vec) {
		var b [8]byte
		for _, planes := range groups {
			for _, v := range planes {
				for i := 0; i < v.Words(); i++ {
					w := v.Word(i)
					for k := range b {
						b[k] = byte(w >> (8 * k))
					}
					h.Write(b[:])
				}
			}
		}
	}
	nq, nc := code.Qubits(), code.Checks()
	layerX, layerZ := bits.NewVecs(nc, lanes), bits.NewVecs(nc, lanes)
	eraH, lostX, lostZ := bits.NewVecs(nq, lanes), bits.NewVecs(nc, lanes), bits.NewVecs(nc, lanes)
	for r := 0; r < 3; r++ {
		next(layerX, layerZ, eraH, lostX, lostZ)
		hash(layerX, layerZ, eraH, lostX, lostZ)
	}
	src.CloseLayers(layerX, layerZ)
	hash(layerX, layerZ)
	w := bits.NewVecs(4, lanes)
	src.Windings(w[0], w[1], w[2], w[3])
	hash(w)
	return h.Sum64()
}

func TestToricSourcesGoldenDrawOrder(t *testing.T) {
	const lanes = 64
	golden := map[int][4]uint64{ // phenomenological, its erased round, circuit, its erased round
		4: {0xb4c6bc2b378058f7, 0x3e8cc8255d25e47d, 0x0176f52a82266059, 0x7f329ce3673fc604},
		5: {0x395bef9ec4119f34, 0xc607a5a5e20f3f60, 0xff68efcec34e96dc, 0xd65ec461adc2f008},
	}
	for l, want := range golden {
		code := toric.Cached(l)
		P := noise.Uniform(0.004)
		leaky := P
		leaky.Leak = 0.01
		ph := surface.NewLayerSource(code, 0.02, 0.01, lanes, frame.NewAggregateSampler(41, 0))
		pe := surface.NewLayerSourceErased(code, 0.02, 0.01, 0.03, 0.02, lanes, frame.NewAggregateSampler(41, 0))
		ci := surface.NewCircuitSource(code, P, lanes, frame.NewAggregateSampler(43, 0))
		ce := surface.NewCircuitSource(code, leaky, lanes, frame.NewAggregateSampler(43, 0))
		got := [4]uint64{
			feedDigest(code, lanes, ph, func(lx, lz, _, _, _ []bits.Vec) { ph.NextLayers(lx, lz) }),
			feedDigest(code, lanes, pe, pe.NextLayersErased),
			feedDigest(code, lanes, ci, func(lx, lz, _, _, _ []bits.Vec) { ci.NextLayers(lx, lz) }),
			feedDigest(code, lanes, ce, ce.NextLayersErased),
		}
		for i, name := range [4]string{"phenomenological", "phenomenological erased", "circuit", "circuit erased"} {
			if got[i] != want[i] {
				t.Errorf("L=%d %s source: digest %#016x, want %#016x — the sampler draw order moved", l, name, got[i], want[i])
			}
		}
	}
}
