package stream

import (
	"fmt"

	"ftqc/internal/decoder"
	"ftqc/internal/surface"
)

// Window is the immutable decode structure of one sliding-window
// configuration: the open-window graphs of both sectors over W
// difference layers of a surface.Code, with a virtual future-boundary
// node and a commit boundary at layer C.
//
// Node (c, t) of a window has index t·nc + c for buffered layers
// t = 0…W−1 (0 is the oldest); the single boundary node is W·nc. Edge
// ids: horizontal edge (e, t) = t·nq + e (a data error at buffered
// round t), then vertical edge (c, t) = W·nq + t·nc + c joining layers
// t and t+1 — where t = W−1 joins the newest layer to the boundary
// node instead (the stand-in for the first vertical edge outside the
// window). Horizontal edges weigh WH, vertical and virtual edges WV,
// exactly like the whole-volume graphs. Circuit-level windows
// (NewCodeCircuitWindow) append the diagonal class: edge
// (e, t) = W·(nq+nc) + t·nq + e of weight WD joining data qubit e's late
// reader at layer t to its early reader at layer t+1, with the t = W−1
// diagonals grounding on the boundary node like the virtual verticals.
//
// Open-boundary codes reuse the same single virtual node for their
// spatial boundary: a 2D sector edge ending on the code's boundary
// grounds there at every layer, and a boundary-truncated diagonal (a
// single-reader data qubit's hook, lone defect at the reader one round
// late) joins that defect to the boundary.
type Window struct {
	L, W, Commit int
	WH, WV, WD   int // WD = 0: phenomenological window, no diagonals

	code         surface.Code
	nq, nc       int
	nodes        int // W·nc + 1, boundary last
	horiz        int // W·nq horizontal edges (ids below this project to data qubits)
	diagOff      int // first diagonal edge id, W·(nq+nc)
	diagX, diagZ [][2]int32
	graphX       *decoder.Graph
	graphZ       *decoder.Graph
}

// NewCodeWindow builds the window structure of a surface.Code (planar
// and rotated windows ground their spatial boundaries on the virtual
// node), window height W ≥ 2 layers, commit region
// 1 ≤ commit ≤ W−1, and the given integer edge weights (see
// spacetime.Weights). Invalid parameters return a descriptive error at
// construction instead of surfacing as a panic deep inside a later
// decode — a window that constructs cleanly streams cleanly. A window
// taller than the stream it eventually decodes is valid: it simply
// never slides and Finish runs the whole-volume decode.
func NewCodeWindow(code surface.Code, w, commit, wh, wv int) (*Window, error) {
	return newWindow(code, w, commit, wh, wv, 0)
}

// NewCodeCircuitWindow is NewCodeWindow plus the circuit model's
// diagonal edge class of weight wd ≥ 1 (see spacetime.WeightsCircuit
// for the weight derivation and the code's ExtractionSchedule for the
// diagonal orientation).
func NewCodeCircuitWindow(code surface.Code, w, commit, wh, wv, wd int) (*Window, error) {
	if wd < 1 {
		return nil, fmt.Errorf("stream: circuit window needs a positive diagonal weight (got wd=%d)", wd)
	}
	return newWindow(code, w, commit, wh, wv, wd)
}

func newWindow(code surface.Code, w, commit, wh, wv, wd int) (*Window, error) {
	if code == nil {
		return nil, fmt.Errorf("stream: window needs a code")
	}
	if w < 2 {
		return nil, fmt.Errorf("stream: window must hold at least two layers (got window=%d)", w)
	}
	if commit < 1 || commit >= w {
		return nil, fmt.Errorf("stream: commit region must satisfy 1 <= commit < window (got commit=%d, window=%d); the commit lag window-commit must stay in [1, window-1]", commit, w)
	}
	if wh < 1 || wv < 1 {
		return nil, fmt.Errorf("stream: edge weights must be positive (got wh=%d, wv=%d)", wh, wv)
	}
	nc := code.Checks()
	win := &Window{
		L: code.Distance(), W: w, Commit: commit, WH: wh, WV: wv, WD: wd,
		code:    code,
		nq:      code.Qubits(),
		nc:      nc,
		nodes:   w*nc + 1,
		horiz:   w * code.Qubits(),
		diagOff: w * (code.Qubits() + nc),
	}
	if wd > 0 {
		sch := code.ExtractionSchedule()
		win.diagX, win.diagZ = sch.DiagX, sch.DiagZ
	}
	win.graphX = win.buildGraph(code.SectorGraph(false), win.diagX)
	win.graphZ = win.buildGraph(code.SectorGraph(true), win.diagZ)
	return win, nil
}

// buildGraph extrudes a 2D sector graph into the open-window graph. For
// open codes the base graph's spatial boundary node (id nc) maps onto
// the window's single virtual node at every layer.
func (w *Window) buildGraph(base *decoder.Graph, diag [][2]int32) *decoder.Graph {
	boundary := int32(w.nodes - 1)
	n := w.horiz + w.W*w.nc
	if w.WD > 0 {
		n += w.W * w.nq
	}
	ends := make([][2]int32, n)
	weights := make([]int32, len(ends))
	for t := 0; t < w.W; t++ {
		off := t * w.nq
		layer := int32(t * w.nc)
		for e := 0; e < w.nq; e++ {
			a, b := base.Ends(e)
			ea, eb := layer+int32(a), layer+int32(b)
			if int(a) == w.nc {
				ea = boundary
			}
			if int(b) == w.nc {
				eb = boundary
			}
			ends[off+e] = [2]int32{ea, eb}
			weights[off+e] = int32(w.WH)
		}
	}
	for t := 0; t < w.W; t++ {
		off := w.horiz + t*w.nc
		for c := 0; c < w.nc; c++ {
			up := boundary
			if t+1 < w.W {
				up = int32((t+1)*w.nc + c)
			}
			ends[off+c] = [2]int32{int32(t*w.nc + c), up}
			weights[off+c] = int32(w.WV)
		}
	}
	if w.WD > 0 {
		for t := 0; t < w.W; t++ {
			off := w.diagOff + t*w.nq
			layer := int32(t * w.nc)
			for e := 0; e < w.nq; e++ {
				if early := diag[e][1]; early < 0 {
					// Boundary-truncated diagonal: the lone defect sits at
					// (diag[e][0], t+1) and pairs with the boundary. At the
					// top layer that defect falls outside the window; the
					// edge stands in at layer t like the virtual verticals
					// (it can never commit — t = W−1 ≥ Commit always).
					lo := layer + diag[e][0]
					if t+1 < w.W {
						lo = int32((t+1)*w.nc) + diag[e][0]
					}
					ends[off+e] = [2]int32{lo, boundary}
				} else {
					up := boundary
					if t+1 < w.W {
						up = int32((t+1)*w.nc) + early
					}
					ends[off+e] = [2]int32{layer + diag[e][0], up}
				}
				weights[off+e] = int32(w.WD)
			}
		}
	}
	return decoder.NewBoundaryGraph(w.nodes, ends, weights, []int{int(boundary)})
}

// Graph returns the primal (plaquette-sector) open-window graph.
func (w *Window) Graph() *decoder.Graph { return w.graphX }

// DualGraph returns the dual (star-sector) open-window graph.
func (w *Window) DualGraph() *decoder.Graph { return w.graphZ }

// Code returns the underlying surface code.
func (w *Window) Code() surface.Code { return w.code }
