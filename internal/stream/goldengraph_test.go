package stream

import (
	"fmt"
	"testing"

	"ftqc/internal/decoder"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// The golden graph test pins the decoding graphs a window decodes over —
// the open-window graph of every slide and the closing graphs Finish
// picks by buffered height — edge for edge: node count, both ends and
// the weight of every edge in id order, and the boundary list. The
// constants were recorded while the window and the closing volume each
// had a builder of their own, so they are what any single builder has to
// reproduce: closed and open codes, a schedule override, both models.

// addGraph folds one graph into the digest.
func (h *frameDigest) addGraph(g *decoder.Graph) {
	h.add(uint64(g.Nodes()))
	h.add(uint64(g.Edges()))
	for e := 0; e < g.Edges(); e++ {
		a, b := g.Ends(e)
		h.add(uint64(a))
		h.add(uint64(b))
		h.add(uint64(g.Weight(e)))
	}
	for v := 0; v < g.Nodes(); v++ {
		if g.IsBoundary(v) {
			h.add(uint64(v))
		}
	}
}

func TestGoldenGraphs(t *testing.T) {
	codes := []surface.Code{
		toric.Cached(4), toric.Cached(5), toric.HookParallel(4),
		surface.Planar(3), surface.Rotated(3), surface.Rotated(5),
	}
	shapes := [][2]int{{4, 2}, {6, 3}}
	// Digests in row order: code, then phenomenological (wh=2, wv=3)
	// before circuit (wh=2, wv=3, wd=5), then window shape.
	pinned := []uint64{
		0x3e1cca710412e605, 0x33cae4064344d0d9, 0x1ff1aabcd9c67f19, 0xf1ebcf2185a011d9,
		0xb13188158e828b85, 0xfdae0b05e470659, 0xd19c48164d8e7c5, 0xe575913277970ad,
		0x3e1cca710412e605, 0x33cae4064344d0d9, 0x1ff1aabcd9c67f19, 0xf1ebcf2185a011d9,
		0x2890a200eb01d809, 0x2a82c1372945a349, 0xe9100ffd75e39abe, 0xd17258e7ccb70836,
		0xf263b5ac9ff90c85, 0x7ac32d86fce77685, 0x7e1e27d9c087c1e7, 0xdce25f03b6bc47e7,
		0x2def88ddace6e8e5, 0xa1c9d1e53f75dd65, 0x901ab441621a02a4, 0x47dcdf4a3afb8ee0,
	}
	i := 0
	for _, code := range codes {
		for _, wd := range []int{0, 5} {
			for _, sh := range shapes {
				win, err := NewWindow(code, sh[0], sh[1], 2, 3, wd)
				if err != nil {
					t.Fatal(err)
				}
				h := frameDigest(14695981039346656037)
				h.addGraph(win.Graph())
				h.addGraph(win.DualGraph())
				for _, height := range []int{1, 2, win.W} {
					v := win.closingVolume(height)
					h.addGraph(v.Graph())
					h.addGraph(v.DualGraph())
				}
				name := fmt.Sprintf("%s-%d wd=%d W=%d C=%d", code.CodeName(), code.Distance(), wd, sh[0], sh[1])
				if uint64(h) != pinned[i] {
					t.Errorf("%s: digest %#x, pinned %#x", name, uint64(h), pinned[i])
				}
				i++
			}
		}
	}
}
