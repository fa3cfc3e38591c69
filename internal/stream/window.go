package stream

import (
	"fmt"
	"sync"

	"ftqc/internal/decoder"
	"ftqc/internal/spacetime"
	"ftqc/internal/surface"
)

// Window is the decode structure of one sliding-window configuration:
// the open-window volume of both sectors over W difference layers of a
// surface.Code (spacetime.NewWindowVolume — a virtual
// future-boundary node above the newest layer, which open codes also
// ground their spatial boundary on), a commit boundary at layer Commit,
// and the closing volumes Finish decodes the buffered tail over, one
// per buffered height, built on first use. Graphs, node indices and
// edge ids are the spacetime package's; the window adds no layout of
// its own. It is shared by every session decoding its shape and dies
// with the last of them.
type Window struct {
	W, Commit  int
	WH, WV, WD int // WD = 0: phenomenological window, no diagonals

	vol *spacetime.Volume

	mu      sync.Mutex
	closing []*spacetime.Volume // by buffered height − 1
}

// NewWindow builds the window structure of a surface.Code (planar and
// rotated windows ground their spatial boundaries on the virtual node),
// window height W ≥ 2 layers, commit region 1 ≤ commit ≤ W−1, and the
// given integer edge weights (see spacetime.Model.Weights): wd = 0
// builds the phenomenological window, wd ≥ 1 adds the circuit model's
// diagonal edge class (the code's ExtractionSchedule orients it).
// Invalid parameters return a descriptive error at construction instead
// of surfacing as a panic deep inside a later decode — a window that
// constructs cleanly streams cleanly. A window taller than the stream
// it eventually decodes is valid: it simply never slides and Finish
// runs the whole-volume decode.
func NewWindow(code surface.Code, w, commit, wh, wv, wd int) (*Window, error) {
	if code == nil {
		return nil, fmt.Errorf("stream: window needs a code")
	}
	if w < 2 {
		return nil, fmt.Errorf("stream: window must hold at least two layers (got window=%d)", w)
	}
	if commit < 1 || commit >= w {
		return nil, fmt.Errorf("stream: commit region must satisfy 1 <= commit < window (got commit=%d, window=%d); the commit lag window-commit must stay in [1, window-1]", commit, w)
	}
	if wh < 1 || wv < 1 || wd < 0 {
		return nil, fmt.Errorf("stream: edge weights must be positive, wd non-negative (got wh=%d, wv=%d, wd=%d)", wh, wv, wd)
	}
	return &Window{
		W: w, Commit: commit, WH: wh, WV: wv, WD: wd,
		vol:     spacetime.NewWindowVolume(code, w, wh, wv, wd),
		closing: make([]*spacetime.Volume, w),
	}, nil
}

// closingVolume returns the closed volume over h buffered rounds plus
// the perfect closing round, building it the first time a stream ends
// at that height.
func (w *Window) closingVolume(h int) *spacetime.Volume {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closing[h-1] == nil {
		w.closing[h-1] = spacetime.NewVolume(w.Code(), h, w.WH, w.WV, w.WD)
	}
	return w.closing[h-1]
}

// Graph returns the primal (plaquette-sector) open-window graph.
func (w *Window) Graph() *decoder.Graph { return w.vol.Graph() }

// DualGraph returns the dual (star-sector) open-window graph.
func (w *Window) DualGraph() *decoder.Graph { return w.vol.DualGraph() }

// Code returns the underlying surface code.
func (w *Window) Code() surface.Code { return w.vol.Code() }
