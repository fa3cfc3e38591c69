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
// its own. It is shared by every session decoding its shape and dies
// with the last of them.
type Window struct {
	W, Commit  int
	WH, WV, WD int // WD = 0: phenomenological window, no diagonals

	vol *spacetime.Volume

	mu      sync.Mutex
	closing []*spacetime.Volume // by buffered height − 1
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

// drainClass names the decoders a Monte Carlo drain can take: a
// decoder's buffers are sized by its code, window height, diagonal class
// (the window's edge count), lanes and options, never by the weights or
// the commit.
type drainClass struct {
	code        string
	l, w, lanes int
	diag        bool
	opts        spacetime.DecodeOptions
}

// drains is the free list of the Monte Carlo drains' decoders, newest
// last. A drain takes the newest free decoder of its class, whatever
// window it last decoded, so a sweep whose every cell prices new
// weights — a new window — still reuses the decoders its earlier cells
// finished. The list is held strongly while any drain runs and weakly
// otherwise: a collection between runs frees it with every decoder on
// it, so idle decoders cost nothing past the next GC. A free decoder
// holds no window, so an idle shape is freed as before.
var drains struct {
	sync.Mutex
	free    weak.Pointer[[]*Decoder]
	held    *[]*Decoder // the list while running > 0
	running int
}

// takeDecoder hands a drain a reset free decoder of the window's class,
// now decoding this window on pool, or a new one.
func (w *Window) takeDecoder(pool *decoder.Service, lanes int, opts spacetime.DecodeOptions) *Decoder {
	class := drainClass{w.Code().CodeName(), w.Code().Distance(), w.W, lanes, w.WD > 0, opts}
	drains.Lock()
	drains.running++
	drains.held = drains.free.Value()
	if free := drains.held; free != nil {
		for i := len(*free) - 1; i >= 0; i-- {
			if d := (*free)[i]; d.class == class {
				*free = slices.Delete(*free, i, i+1)
				drains.Unlock()
				d.win, d.pool = w, pool
				d.reset()
				return d
			}
		}
	}
	drains.Unlock()
	d := w.newDecoder(pool, lanes, opts)
	d.class = class
	return d
}

// putDecoder frees a drain's decoder.
func putDecoder(d *Decoder) {
	d.win, d.pool = nil, nil
	drains.Lock()
	defer drains.Unlock()
	free := drains.free.Value()
	if free == nil {
		free = new([]*Decoder)
		drains.free = weak.Make(free)
	}
	*free = append(*free, d)
	if drains.running--; drains.running > 0 {
		drains.held = free
	} else {
		drains.held = nil
	}
}

// Graph returns the primal (plaquette-sector) open-window graph.
func (w *Window) Graph() *decoder.Graph { return w.vol.Graph() }

// DualGraph returns the dual (star-sector) open-window graph.
func (w *Window) DualGraph() *decoder.Graph { return w.vol.DualGraph() }

// Code returns the underlying surface code.
func (w *Window) Code() surface.Code { return w.vol.Code() }
