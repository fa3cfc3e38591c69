package stream

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"weak"

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
// its own. It also keeps the decoders its Monte Carlo drains finished,
// so one call's decoders serve the next. It is shared by every session
// decoding its shape and dies with the last of them.
type Window struct {
	W, Commit  int
	WH, WV, WD int // WD = 0: phenomenological window, no diagonals

	vol *spacetime.Volume

	mu            sync.Mutex
	closing       []*spacetime.Volume // by buffered height − 1
	free          []*Decoder          // finished drains' decoders
	running, peak int                 // drains in flight now and at most: the list's cap
}

// WindowShape is the one rule that fills in a requested window for a
// distance-l code: window 0 takes DefaultWindow's height, commit 0 half
// the window (at least one layer). A negative size is an error, never
// the default; NewWindow checks what the rule returns.
func WindowShape(l, window, commit int) (int, int, error) {
	if window < 0 || commit < 0 {
		return 0, 0, fmt.Errorf("stream: window and commit must be positive, or 0 for the default (got window=%d, commit=%d)", window, commit)
	}
	if window == 0 {
		window, _ = DefaultWindow(l)
	}
	if commit == 0 {
		commit = max(window/2, 1)
	}
	return window, commit, nil
}

// NewWindow builds the window structure of a surface.Code (planar and
// rotated windows ground their spatial boundaries on the virtual node),
// window height W ≥ 2 layers, commit region 1 ≤ commit ≤ W−1, and the
// given integer edge weights, none past decoder.MaxWeight (see
// spacetime.Model.Weights): wd = 0 builds the phenomenological window,
// wd ≥ 1 adds the circuit model's diagonal edge class (the code's
// ExtractionSchedule orients it).
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
	if wmax := max(wh, wv, wd); wmax > decoder.MaxWeight {
		return nil, fmt.Errorf("stream: edge weight %d is past the decoder's maximum %d (got wh=%d, wv=%d, wd=%d)", wmax, decoder.MaxWeight, wh, wv, wd)
	}
	return &Window{
		W: w, Commit: commit, WH: wh, WV: wv, WD: wd,
		vol:     spacetime.NewWindowVolume(code, w, wh, wv, wd),
		closing: make([]*spacetime.Volume, w),
	}, nil
}

// shapeKey names an interned window: the code by family name and
// distance (a schedule override carries a name of its own, such as
// toric.HookParallel's), then the window's height, commit and weights.
type shapeKey struct {
	code                string
	l, w, c, wh, wv, wd int
}

// shapes is the process-wide window table. Its entries are weak: a
// window stays interned while anything holds it — an open server
// session's decoder, a Monte Carlo drain in flight — and once nothing
// does, the collector frees it with its closing volumes and free
// decoders, and the window's cleanup drops the entry. The table so
// holds the live shapes plus those a collection has freed and whose
// cleanup has not run yet; it needs no cap.
var shapes = struct {
	sync.Mutex
	m map[shapeKey]weak.Pointer[Window]
}{m: make(map[shapeKey]weak.Pointer[Window])}

// InternWindow is NewWindow through the process-wide table: a shape
// that is still held anywhere in the process comes back as the same
// *Window, anything else is built and interned.
func InternWindow(code surface.Code, w, commit, wh, wv, wd int) (*Window, error) {
	if code == nil {
		return nil, fmt.Errorf("stream: window needs a code")
	}
	key := shapeKey{code.CodeName(), code.Distance(), w, commit, wh, wv, wd}
	shapes.Lock()
	win := shapes.m[key].Value()
	shapes.Unlock()
	if win != nil {
		return win, nil
	}
	built, err := NewWindow(code, w, commit, wh, wv, wd)
	if err != nil {
		return nil, err
	}
	shapes.Lock()
	defer shapes.Unlock()
	if win := shapes.m[key].Value(); win != nil {
		return win, nil // another caller interned it while we built
	}
	wp := weak.Make(built)
	shapes.m[key] = wp
	runtime.AddCleanup(built, func(wp weak.Pointer[Window]) {
		shapes.Lock()
		if shapes.m[key] == wp {
			delete(shapes.m, key)
		}
		shapes.Unlock()
	}, wp)
	return built, nil
}

// Shapes returns how many window shapes the process-wide table holds.
func Shapes() int {
	shapes.Lock()
	defer shapes.Unlock()
	return len(shapes.m)
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

// takeDecoder hands a drain a reset free decoder of its lanes and
// options, now decoding on pool, or a new one.
func (w *Window) takeDecoder(pool *decoder.Service, lanes int, opts spacetime.DecodeOptions) *Decoder {
	w.mu.Lock()
	w.running++
	w.peak = max(w.peak, w.running)
	for i, d := range w.free {
		if d.lanes == lanes && d.opts == opts {
			w.free = slices.Delete(w.free, i, i+1)
			w.mu.Unlock()
			d.reset()
			d.pool = pool
			return d
		}
	}
	w.mu.Unlock()
	return w.newDecoder(pool, lanes, opts)
}

// putDecoder frees a drain's decoder; past the cap the oldest goes.
func (w *Window) putDecoder(d *Decoder) {
	w.mu.Lock()
	w.running--
	if w.free = append(w.free, d); len(w.free) > w.peak {
		w.free = slices.Delete(w.free, 0, len(w.free)-w.peak)
	}
	w.mu.Unlock()
}

// Graph returns the primal (plaquette-sector) open-window graph.
func (w *Window) Graph() *decoder.Graph { return w.vol.Graph() }

// DualGraph returns the dual (star-sector) open-window graph.
func (w *Window) DualGraph() *decoder.Graph { return w.vol.DualGraph() }

// Code returns the underlying surface code.
func (w *Window) Code() surface.Code { return w.vol.Code() }
