// Package decoder provides the scalable classical decoders for the toric
// code (and any other graph-like code): a near-linear union-find decoder
// for the hot Monte Carlo path and a polynomial exact minimum-weight
// perfect matching kept as the accuracy baseline. Gottesman
// (arXiv:2210.15844) singles out fast classical decoding as the gating
// classical cost of scaling fault-tolerant quantum computers; this
// package is that subsystem.
//
// # The union-find growth/merge algorithm
//
// UnionFind implements the Delfosse–Nickerson decoder on a fixed decoding
// Graph (detectors = nodes, qubits = edges, each edge carrying a positive
// integer weight — a scaled log-likelihood ratio, 1 for uniform noise).
// Decoding runs in three phases:
//
//  1. Seeding. Every defect (lit detector) becomes a singleton cluster
//     with odd parity whose boundary is its incident edge list. When
//     erasure information is supplied (the erased list of
//     AppendCorrection), every erased edge enters the erasure at full
//     support first: its endpoints are absorbed and united before any
//     growth, so pure-erasure syndromes skip phase 2 entirely. On
//     graphs with open-boundary nodes (NewGraph's boundary list — the
//     future edge of a sliding decode window), a cluster that reaches a
//     boundary node is "grounded": the boundary absorbs its parity, it
//     never counts as odd, and it stops growing.
//
//  2. Growth and merge. While any cluster has odd parity, every odd
//     cluster grows each boundary edge by one half-step of support per
//     sweep; an edge of weight w is fully grown at support 2w (the
//     classic 0→1→2 progression on unit-weight graphs, proportionally
//     more sweeps for heavier — less likely — edges, which is how
//     measurement-error and data-error channels with different rates
//     steer the clusters). The sweeps before anything can complete run
//     as one pass (see the determinism contract). A fully grown edge
//     leaves the boundary and triggers a merge: its endpoint clusters
//     are united (union by size, ties to the smaller root id; parities
//     add, boundary lists concatenate), and a node reached for the
//     first time is absorbed as a parity-0 member bringing its own
//     incident edges. Because the total defect parity on a closed graph
//     is even, growth terminates with every cluster even.
//
//  3. Peeling. The fully-grown edges form an "erasure" that connects
//     each cluster. A depth-first spanning forest of that erasure is
//     peeled leaf-first: a leaf holding a defect emits its tree edge
//     into the correction and hands the defect to its parent. Within
//     each even cluster the defects cancel pairwise, so the emitted
//     chain's syndrome is exactly the defect set. Grounded clusters
//     root their trees at their boundary node (boundary nodes first, in
//     ascending node order), so any unpaired defect drains onto the
//     boundary and the emitted chains' interior syndrome still equals
//     the interior defect set exactly.
//
// Cost is near-linear (inverse-Ackermann union-find) in the size of the
// grown region, not in the lattice, which is what makes L = 16–32 memory
// experiments — and L=16, T=16 space-time volumes — tractable where
// matching decoders pay at least O(defects²).
//
// # Exact matching baseline
//
// Matcher.MinWeightPairs is a polynomial (O(n³)-style) primal-dual
// blossom algorithm for minimum-weight perfect matching on the complete
// defect graph — the replacement for the old O(2ⁿ·n²) bitmask dynamic
// program, with no cap on the defect count. It is the accuracy baseline
// the union-find decoder is measured against.
//
// The matcher always stages the complete graph: n(n−1)/2 edges, priced
// by the caller's weight function, so the package holds no geometry of
// its own. The exact decoders run it at the sizes where it is the
// reference (L ≤ 16 tori, L ≤ 8 space-time volumes); past that the
// O(n²) staging and O(n³) solve are union-find territory. At the
// reference sizes, pruning the staged edges to the locally short ones
// (sparse blossom, with dual pricing to restore optimality) saved
// little or nothing in measurement, so there is no pruned path.
//
// # Scratch layout
//
// A UnionFind keeps all per-node state — union-find parent and size, the
// epoch stamp, parity/defect/grounded flags, the head and tail of the
// cluster's boundary list, the erasure degree and CSR offset — in one
// 32-byte record, and all per-edge state in its 2-byte support, with the
// boundary lists in a single {node, next} arena; the full-support target
// 2·weight is the graph's, kept beside each adjacency slot and read in
// the same sequential pass as the slot's edge id. First touch of a node
// writes one record and a growth visit makes one random load, the
// support, which is what keeps a W = 32, L = 16 window (8 k nodes, 41 k
// edges) inside the cache levels next to the core; no scratch record
// depends on the graph it was last used on (E50).
// AppendCorrection is the form the pool runs: the
// correction is appended into a caller-owned buffer in emit order. A
// given first pass (see the determinism contract) is read back from
// the defect marks rather than stored, so the edges only it touched
// are neither written nor reset.
//
// # Decode service
//
// Service wraps decoder Graphs in a long-lived worker pool: batched
// Shot submissions (defects + optional erasure, and optionally the
// decode's first growth pass) in, per-shot correction edge lists out,
// in submission order. The streaming window sweeps the first passes of
// a batch's dense plain lanes at once (Graph.AppendFirstPasses) into
// their correction buffers, which a worker reads them out of before it
// writes the correction there. Workers reuse UnionFind scratch
// across submissions and results land in indexed slots, so a batch's
// output is bit-identical for any worker count — the deployable shape
// of the decode stage (the streaming window pipeline submits every
// slide and every Finish through one). NewPool(n) starts it;
// ResubmitOn(g, batch, shots) routes a reusable batch to its graph —
// one fleet can serve every window graph in the process, which is how
// internal/server multiplexes many sessions over shared workers. Each
// worker owns one UnionFind and binds it to each span's graph, growing
// its arrays only for a graph larger than any before; the span's end
// drops the graph, so a worker never keeps one alive. Node records and
// pair marks are epoch-stamped and supports and worklists reset per
// decode, so one instance is exact across graphs. A pool of n workers
// holds n instances however many graphs, closing heights and sectors it
// serves, each sized to the largest graph its worker has decoded —
// about 6 MB at the wire limits (L = 32, window 128).
//
// The lifecycle is part of the contract: Close is idempotent, drains
// in-flight submissions before releasing the workers, and any
// ResubmitOn after Close returns ErrClosed — never a panic — so
// concurrent producers racing a shutdown fail soft.
//
// # Determinism contract
//
// All decoders are pure functions of their inputs:
//
//   - Graph construction lays adjacency lists in ascending (node, edge)
//     order; 3D space-time graphs are built layer-major and class-major
//     (all horizontal edges of layer 0 … T−1, then all vertical edges,
//     then — circuit-level graphs — all diagonal edges, each class again
//     layer-major), so edge ids and traversal order are fixed by (L, T)
//     and the extraction schedule alone. Diagonal edges are ordinary
//     weighted edges to every decoder pass: growth, merge, peeling and
//     the boundary handling treat the three classes identically, and a
//     wd = 0 construction is bit-identical to the two-class graph.
//   - The exact matcher on circuit-level volumes prices pairs with a
//     precomputed offset table (Dial's algorithm over the translation-
//     invariant move set), itself a pure function of (L, T, weights,
//     schedule) — no randomness enters the metric.
//   - Growth sweeps visit clusters in first-touch order; weighted
//     targets (2·weight) change when an edge crosses, never the visit
//     order. Every pass over the boundary adds one half-step of support
//     per visit, except the first pass of a decode, which adds wmin (the
//     graph's smallest edge weight) per visit and stands for the first
//     wmin half-step sweeps. The fold is exact, not approximate:
//     (1) a decode starts with zero support outside the erasure and an
//     edge gains at most 2 per sweep, one visit from each end, while
//     every target is at least 2·wmin — so sweeps 1 … wmin−1 complete no
//     edge, merge nothing and leave the odd list and every boundary list
//     as they found them;
//     (2) in sweep wmin the edges that complete are exactly the
//     weight-wmin edges visited from both ends, each on its second
//     visit, which is also the visit on which wmin + wmin reaches the
//     target in the folded pass;
//     (3) first support — hence the dirty order — is laid in sweep 1 in
//     both schedules, and after the pass both hold the same support on
//     every edge.
//     So the folded pass queues the same merges in the same order, and
//     forest, peel and emit order follow. GrowthSweeps keeps counting
//     half-step sweeps (the folded pass counts wmin). A unit-weight
//     graph has wmin = 1, folds nothing, and is bit-identical to the
//     pre-weighted decoder, emit order included. The half-step-only
//     schedule survives as the constants of TestGoldenKernel.
//   - A given first pass is exact too. In a plain decode (no erased
//     edge) every defect enters the first pass as an odd singleton — no
//     defect is a boundary node, so none is grounded — and nothing else
//     is on a boundary list, so the pass visits the defects in list
//     order and adds wmin to each incident edge once per defect
//     endpoint. By (2) it completes exactly the weight-wmin edges
//     joining two defects, each on the visit of its later defect, in
//     that defect's adjacency order. For an ascending list that is, for
//     every defect v in ascending order, each lightest edge to a smaller
//     defect in slot order: a function of the defect set that
//     Graph.AppendFirstPasses computes for a whole batch of lanes at
//     once, bit-sliced over the lane planes (D[v] & D[y] names the lanes
//     whose pass completes edge (y, v)). A decode handed that list
//     (Shot.FirstPass) merges it as the pass's merge sweep and counts
//     wmin sweeps for it, and never stores the pass's support: the
//     defects carry this decode's mark (2·epoch), and whenever a later
//     pass visits an edge its support is the stored part plus wmin per
//     marked endpoint, summed in int — the support the walked pass
//     leaves, so every later pass completes, merges and keeps the same
//     edges in the same order. Two things differ and neither reaches
//     the output: the dirty list holds only edges whose stored support
//     became nonzero (the reset and the pair path's fallback read it,
//     neither in order), and a defect whose every edge completes in the
//     pass keeps its boundary cell, which the walked pass drops; the
//     next pass to visit the cell finds every edge grown and drops it
//     then, having grown nothing, and a drop never reorders the cells
//     around it. Only a walked pass reads no marks, so the pair path's
//     stamps (2·epoch for a defect, 2·epoch+1 for a pair node, each in
//     its own epoch) are never read as support. Only ascending lists
//     may be given a pass — the sweep's order is ascending node order,
//     and a given decode panics on a descending pair. Decodes with
//     erased edges walk their pass: there the seeded erasure absorbs
//     non-defect nodes onto boundary lists, which the pass also grows,
//     and unites defects into even clusters, which it skips, so the
//     pass is no longer a function of the defect set alone. Sparse
//     plain decodes take the isolated-pair path and ignore a given pass.
//   - Erased edges seed in caller order before any growth; merges happen
//     in grow order; peeling follows DFS order (boundary-rooted trees
//     first on open-boundary graphs).
//   - The matcher breaks ties by its fixed edge enumeration over the
//     complete graph, so its pairing is a pure function of the weight
//     table.
//   - Scratch reuse is invisible: UnionFind and Matcher both recycle
//     their arrays across calls (epoch stamps, length resets), and
//     reuse across a stream of windows — thousands of Decodes against
//     one graph from one instance — yields the same output as a fresh
//     instance per call. For UnionFind this scratch-history
//     independence is a pinned contract: the same shots decode to the
//     same corrections and sweep counts on a fresh instance, on one
//     reused across all of them in any order, and across the 30-bit
//     epoch wraparound (which clears the node stamps), and re-bound to
//     other graphs between decodes. The Service's worker pool relies on
//     exactly this to share instances across submissions — a frame
//     served by one pool is compared against a reference decoded on another.
//   - Multi-graph scheduling is invisible too: a pool interleaving
//     batches for many graphs (many streaming sessions) gives every
//     batch the same corrections a dedicated single-graph service
//     would, because each shot's output is a pure function of (graph,
//     defects, erasure) and lands in its own indexed slot. Tenants
//     sharing a pool cannot perturb each other's results — only their
//     latency — which is the property the multi-session decode server
//     (internal/server) pins with its server-vs-standalone equivalence
//     suite.
//   - Correlated two-sector decoding stays pure by serialization: the
//     caller decodes the primal sector first, derives the dual sector's
//     erasure list from the *committed* primal correction alone (a pure
//     edge-id map — see spacetime.MarkCounterpartEdges), and only then
//     submits the dual. The dual's inputs are thus a pure function of
//     the primal's inputs, so the pair inherits every guarantee above:
//     worker-count invariance, scratch-reuse invisibility, and
//     pool-interleaving invisibility. The one obligation is ordering —
//     a correlated pair must not race its own sectors — which the
//     streaming layer meets by running the dual slide after the primal
//     commit inside each window step.
//
// No map iteration, clock, or scheduling enters any decision, so a
// decode's output depends only on (graph, defect list, erasure) — the
// property the batch experiments rely on to stay reproducible for any
// GOMAXPROCS. Decoder instances carry scratch state and must not be
// shared between goroutines; the Graph is immutable and shared freely.
//
// # Sparse decodes: isolated pairs
//
// A plain decode (no erased edges) with at most one defect per sparseK =
// 64 detectors first takes out its isolated pairs — two defects on a
// weight-wmin edge, each the other's only defect neighbour over adjacency
// slots (a parallel edge disqualifies) — grows the rest alone, and keeps
// that only if no edge of a pair node gained support, else decodes the
// whole list the full way. The output equals the full decode's, emit
// order and GrowthSweeps included, by induction over the sweeps: the
// full decode's folded first pass completes the pair edge (visited from
// both ends) and no other pair-node edge (each reaches a non-defect), so
// the pair is an even cluster that never grows again; no rest defect
// shares an edge with a pair node, so the rest's passes read and write
// the same state in both decodes until one reaches a pair node's edge —
// what the support check sees, that edge starting at zero in the
// rest-only decode; unions touch one component at a time. The DFS roots
// a pair at its first defect in list order (not its smaller id), so the
// pair path emits the pair edge from that list position. Sweeps are the
// rest's, or wmin (the one folded pass) when nothing else is left.
//
// The pair test reads nothing per defect beyond the adjacency slots it
// scans (off and adjN of the defect, then of its one defect neighbour)
// and the mark array. Four shortcuts take out the loads it used to wait
// on, and each is exact:
//
//   - The weight test is skipped on a graph whose edges all have one
//     weight (NewGraph records that): every edge then weighs wmin.
//     Mixed-weight graphs still load the pair edge's weight.
//   - IsBoundary compares against the graph's smallest boundary id
//     before it loads the boundary flag, and no node below that id is a
//     boundary node. Space-time graphs put their one boundary node
//     last, so no defect loads the flag.
//   - A pair records the adjacency slot of its edge; the edge id is
//     loaded when the pair is emitted, as independent loads, not while
//     the scan waits on it.
//   - A decode whose defects all pair emits the pair edges last pair
//     first and returns, without seeding, CSR build or peel: with no
//     rest nothing is touched, so peel's order is the pairs alone, one
//     step each in list order, which it emits in reverse.
//
// The rule sits between measured crossovers: ≈ 4 % density on the unit-
// weight L=16 window (BenchmarkUnionFindDensity), ≈ 1 % on circuit ones.
package decoder
