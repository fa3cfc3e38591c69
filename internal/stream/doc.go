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
// error before anything is submitted.
//
// # One memory driver
//
// Memory is the package's one Monte Carlo driver, and every union-find
// memory number — the whole-volume ones included — comes from its drain,
// the one the decode server and the benchmark run. VolumeMemory is the
// whole-volume experiment as a window that never slides: W = max(T, 2),
// commit 1, so Finish decodes the closed T-round volume (a one-round
// circuit run prices its weights over two layers, which give the same
// weights). Only the exact matcher, which decodes closed volumes alone,
// drains spacetime.Volume.BatchMemoryFrom. Erasure channels and decode
// options stream on every model: a phenomenological window seeds its
// leaked qubits and lost measurements exactly as a circuit-level one
// seeds leakage. Both drivers return one Result, and SustainedThreshold
// is the one sweep over two distances, each caller binding the run that
// measures a point.
//
// # One decode per window, from scratch
//
// Successive windows share W − C layers, and every slide re-decodes
// them: a slide is defect lists → one plain union-find decode per lane
// → commit and carry, and nothing is carried between slides but the
// carry defects and the frames. The lists come straight off the ring,
// one word slab per sector that Push packs each round into, every set
// lane bit appending its detector to that lane's list, and only the
// per-lane carry is pivoted, to join the base layer, where the cut
// defects sit. (A retained-forest slide that kept the previous
// window's interior clusters across the slide was measured slower than
// this on every benchmark workload and deleted; EXPERIMENTS.md E31 has
// the table.) The one shortcut is the
// silent-sector skip: a sector whose buffered layers are empty in every
// lane and whose carries are clear skips its decode outright — an empty
// defect list decodes to an empty correction, so the skip is exact by
// construction and has no off switch. Every buffer — rings, the
// plane-major carry, defect, erasure and correction lists — is sized
// once in NewDecoderOpts, and warm Push (slides included) and warm
// Finish run at zero heap allocations; a Monte Carlo drain builds a
// decoder only when no finished drain on its window left one to reset.
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
// new weights still reuses its earlier cells' decoders. The list is
// held strongly while a drain runs and weakly otherwise.
// The table's entries are weak pointers: a window stays interned while
// anything holds it — an open server session, a drain in flight — and
// an idle one is freed by the next collection, a runtime.AddCleanup
// dropping its entry, so a tenant cycling through weight triples cannot
// grow the process (TestShapeTableBounded in package server). Reuse
// changes no bit (TestMemoryReuseAcrossCalls).
//
// Accuracy: a window of W ≥ 2L rounds with a C = W/2 commit region
// reproduces whole-volume logical failure rates within statistical
// error (tested); shorter windows trade fidelity for latency.
package stream
