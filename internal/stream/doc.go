// Package stream decodes an endless noisy-syndrome stream through a
// sliding window — the architecture a real fault-tolerant memory needs.
// A whole-volume decode (package spacetime's volumes) materializes all T
// rounds before decoding, so memory and latency grow linearly with T;
// a streaming memory must instead decode as rounds arrive, in constant
// space, forever. Gottesman (arXiv:2210.15844) calls real-time decoding
// under a continuous syndrome stream the central systems challenge of
// FTQC; this package is that subsystem.
//
// # Sliding window with a commit region
//
// The decoder buffers the most recent W difference-syndrome layers per
// lane. When the buffer is full and a new round arrives, the window is
// decoded over an open-window graph: the W layers' detectors with the
// usual horizontal (data-error) and vertical (measurement-error)
// weighted edges, plus one virtual boundary node joined to the newest
// layer by vertical-weight edges — a defect near the open edge may be a
// measurement error whose partner round has not happened yet, and the
// boundary absorbs exactly that possibility. The graph is a
// spacetime.Volume whose top layer is that boundary
// (spacetime.NewWindowVolume), built by the same function as every
// closed volume; node indices and edge ids are the spacetime package's.
//
// The correction is then split at the commit boundary C < W:
//
//   - every correction edge touching a layer below C is committed —
//     space-like edges XOR into the lane's running Pauli frame,
//     time-like edges are measurement-error assignments and vanish;
//   - a committed time-like edge crossing the boundary (layer C−1 to C)
//     cuts its chain there, leaving an artificial "carry" defect at
//     layer C that re-enters the next window;
//   - everything above C is discarded and re-decoded on the next slide,
//     when one more round of context has arrived.
//
// Because every edge incident to a sub-C detector is committed, the
// committed chains cancel the sub-C defects exactly; the window then
// slides forward by C rounds. Per-lane state is the layer ring, the
// carry, and the frame: O(L²·W) bits regardless of how many rounds
// stream past — the constant-memory property the sustained experiments
// rely on. At stream end one perfect round closes the remaining buffer,
// which decodes as an ordinary closed volume of the buffered height on
// the slide's own path — same lists read off the planes, same pool
// round trip — with the commit boundary past the closing layer, so
// everything commits and nothing is cut. With W ≥ T no slide ever fires
// and the stream decode is bit-identical to the whole-volume decode over
// the same weights (tested; Memory's circuit weights take the window as
// their horizon, so there that is W = T). The Window owns those closing
// volumes (at most W, one per height a stream has ended at, built on
// first use and shared by every session on the window); a closing round
// with odd defect parity on a closed code is refused as the decoder's
// error before its sector is submitted, and both frames stay at the
// rounds committed before it.
//
// # One memory driver
//
// Memory and VolumeMemory run the package's one Monte Carlo driver
// (Window.memory), and every memory number — the whole-volume ones and
// the exact matcher's included — comes from its drain, the one the
// decode server and the benchmark run. VolumeMemory is the whole-volume
// experiment as a window that never slides: W = max(T, 2), commit 1, so
// the close decodes the closed T-round volume — Finish for union-find
// (a one-round circuit run prices its weights over two layers, dearer
// than one under measurement-dominated noise), and for the exact
// matcher, whose weights are priced over T, a close that matches the
// same defect lists (spacetime.Volume.Match). Erasure channels and
// decode options stream on every model: a phenomenological window
// seeds its leaked qubits and lost measurements exactly as a
// circuit-level one seeds leakage. Both entry points return one Result,
// and SustainedThreshold is the one sweep over two distances, each
// caller binding the run that measures a point.
//
// # One decode per window, from scratch
//
// Successive windows share W − C layers, and every slide re-decodes
// them: a slide is defect lists → one union-find decode per lane →
// commit and carry, and nothing is carried between slides but the
// carry defects and the frames. Every decode runs the two sectors in
// turn, the primal through to its commit and then the dual, on one
// set of per-lane defect, erased-edge and correction lists, one batch
// of shots and one decoder.Batch that the Decoder owns; a sector
// keeps only its stream (ring, carry, base pivot, frames, lost-ancilla
// ring). The lists are most of a decoder's footprint, so this
// holds them once rather than once per sector (EXPERIMENTS.md E44),
// and a correlated decoder, whose dual reprices from the primal
// correction, needs the order anyway. The lists come straight off the
// ring, one word slab per sector that Push packs each round into,
// every set lane bit appending its detector to that lane's list, and
// only the per-lane carry is pivoted, to join the base layer, where
// the cut defects sit. (A retained-forest slide that kept the
// previous window's interior clusters across the slide was measured
// slower than this on every benchmark workload and deleted;
// EXPERIMENTS.md E31 has the table.) Every sector decode takes that
// one path: a sector silent in every lane decodes to the empty
// correction, and an erasure-aware decoder reads its erased lists off
// the rings on every decode, empty when nothing was erased (a
// silent-sector skip and a per-slot erasure gate saved nothing
// measured and were deleted; EXPERIMENTS.md E46). Every buffer —
// rings, the plane-major carry, defect, erasure and correction lists —
// is sized once in Window.newDecoder, and warm Push (slides included)
// and warm Finish run at zero heap allocations; a Monte Carlo drain
// builds a decoder only when the process-wide free list holds none of
// its class (code, W, diagonal class, lanes, options) to reset,
// whichever window the free one last drained. The free decoder carries
// the drain's layer planes (and, once an Erasing feed has used it, its
// erasure planes) and the layer feed Memory last built for it, which
// the next chunk of an equal spacetime.Model resets onto its sampler
// instead of building (surface.LayerSource.Reset,
// surface.CircuitSource.Reset); a chunk of another model builds a new
// feed. A warm Memory call so builds no feed and no plane
// (TestWarmMemoryCallAllocs), and with no per-chunk garbage no
// collection fires in steady state. Decoder.Reset, the reset the free
// list runs, is exported for the decode server, whose wire sessions
// recycle their decoders the same way (package server).
//
// # One first-pass sweep per batch
//
// A plain union-find decode's first growth pass is a function of its
// defect set alone — it completes exactly the lightest edges joining two
// defects (decoder's doc.go has the argument) — and a batch's 64–128
// lanes already sit side by side as lane bits in the planes the lists
// were read from. So when some plain lane of a sector decode is past the
// isolated-pair density rule (decoder.Graph.Sparse), giveFirstPasses
// sweeps every lane's first pass at once with
// decoder.Graph.AppendFirstPasses, bit-sliced over those planes in
// place — the pivoted base layer, the ring slots, the closing planes —
// into the correction lists, and each plain lane's shot carries its list
// as Shot.FirstPass; the worker merges it before it writes the
// correction into the same buffer. The lists are ascending, which the
// given pass needs; the sweep runs after a correlated dual's Reprice,
// which reads the primal correction out of the same lists (a repriced
// lane has erased edges and walks its pass). Lanes with erased edges
// never sweep, and neither do quiet decodes, whose every lane takes the
// pair path.
// Corrections, emit order and sweep counts are the walked decode's
// (TestFirstPassesMatchWalk, TestDenseDecodesTakeFirstPasses, and every
// golden). The saving comes from amortising the pass across the lanes:
// a per-lane implicit first pass, with no sweep, measured flat twice
// (EXPERIMENTS.md E45).
//
// What the decode pool may not do is remember: a lane's correction must
// depend on (graph, defects, erasure) alone, never on what the worker's
// scratch decoded before — the scratch-history-independence contract of
// decoder.UnionFind — because the frames a session commits are compared
// bit for bit against references decoded on other pools
// (TestGoldenFrames pins them against recorded digests).
//
// # Decode service
//
// Window decodes are fanned out through decoder.Service — a long-lived
// worker pool (reusable batches of shots in, corrections out,
// bit-identical for any worker count). Memory decodes every chunk of
// every call on one process-wide pool, started by the first call and
// grown to each call's GOMAXPROCS, so it persists across thousands of
// submissions, the shape a control-system consumer would call at scale.
// The pool holds nothing per window: decode scratch belongs to the
// graphs, the graphs to the volumes, the volumes to the Window, so a
// shape no session holds any more is garbage
// (TestDroppedShapesAreCollected).
//
// # One window per shape per process
//
// Nothing a window holds depends on the faults, so each shape is built
// once: InternWindow looks a (code, W, C, weights) key up in a
// process-wide table and builds only what is missing. Memory and the
// decode server both take their windows there, so a Monte Carlo call
// repeating an earlier call's shape starts with its graphs and closing
// volumes. A drain's decoder depends only on the code, the window
// height, the diagonal class, the lanes and the options, so the drains
// share one free list across windows: a sweep whose every cell prices
// new weights still reuses its earlier cells' decoders, and the feeds
// and planes they carry. The list is held strongly while a drain runs
// and weakly otherwise: idle decoders, feeds and planes go at the next
// collection.
// The table's entries are weak pointers: a window stays interned while
// anything holds it — an open server session, a server's free wire
// scratch until the next collection, a drain in flight — and
// an idle one is freed by the next collection, a runtime.AddCleanup
// dropping its entry, so a tenant cycling through weight triples cannot
// grow the process (TestShapeTableBounded in package server). Reuse
// changes no bit (TestMemoryReuseAcrossCalls).
//
// Accuracy: a window of W ≥ 2L rounds with a C = W/2 commit region
// reproduces whole-volume logical failure rates within statistical
// error (tested); shorter windows trade fidelity for latency.
package stream
