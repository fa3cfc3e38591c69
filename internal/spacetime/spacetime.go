package spacetime

import (
	"math"
	"sync"

	"ftqc/internal/bits"
	"ftqc/internal/decoder"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// Volume is the 3D space-time decoding volume of a surface.Code over
// T noisy syndrome-extraction rounds plus one perfect closing round:
// (T+1)·Checks() detectors per sector, horizontal (space-like) edges of
// weight WH for data errors and vertical (time-like) edges of weight WV
// for measurement errors. Circuit-level volumes (WD ≥ 1) add a third
// class: diagonal edges of weight WD joining a data qubit's
// late reader at layer t to its early reader at layer t+1 — the
// correlated defect pair a mid-round CNOT fault produces. Open codes
// append one virtual boundary node that grounds both the boundary
// qubits of every layer and the boundary-truncated diagonals. A window
// volume (NewWindowVolume) is the same stack with no closing round:
// its top layer is the virtual future boundary, folded onto that one
// node. It is immutable after construction and shared across workers;
// each caller brings its own decoder state.
//
// The edge-id layout is stated here and nowhere else: buildGraph assigns
// the ids, CommitEdges reads a correction back, AppendErased and
// Reprice name erased edges.
type Volume struct {
	L, T       int // L = code distance
	WH, WV, WD int // WD = 0: no diagonal edges (phenomenological volume)

	code    surface.Code
	lat     *toric.Lattice // non-nil only for the torus (exact-matcher fast paths)
	nq      int            // data qubits per layer
	nc      int            // checks per layer per sector
	det     int            // detector nodes per sector: (T+1)·nc, T·nc in a window volume
	nodes   int            // det, plus one boundary node for open codes and window volumes
	horiz   int            // horizontal edge count, T·nq (ids below this project to data qubits)
	diagOff int            // first diagonal edge id, horiz + T·nc (ids at or above project to data qubits)
	// Per-sector {late, early} reader checks of each data edge (nil when
	// WD = 0), and the offset metric tables the exact matcher prices
	// pairs with — built lazily on first exact decode (see metric), so
	// union-find-only workloads never pay for them.
	diagX, diagZ [][2]int32
	distOnce     sync.Once
	distX, distZ []int64
	graphX       *decoder.Graph // primal (plaquette) sector
	graphZ       *decoder.Graph // dual (star) sector
}

// NewVolume builds the space-time volume of a surface.Code for rounds ≥
// 1 noisy extraction rounds and the given integer edge weights (see
// Model.Weights). wd = 0 builds the phenomenological volume; wd ≥ 1 adds
// the circuit-level diagonal edge class, oriented by the per-qubit
// {late, early} reader pairs of the code's own extraction schedule —
// boundary-truncated diagonals of open codes ground on the virtual
// boundary node. Both sector graphs are built; node (c, t) has index
// t·Checks()+c.
func NewVolume(code surface.Code, rounds, wh, wv, wd int) *Volume {
	return newVolume(code, rounds, wh, wv, wd, false)
}

// NewWindowVolume builds the open-window form of the volume over
// `layers` buffered rounds (wd = 0: no diagonals): no closing round
// exists yet, so the layer above the newest one is the virtual future
// boundary — every vertical and diagonal edge leaving layer layers−1
// grounds on the boundary node, the stand-in for the first edge outside
// the window, and closed codes get that node too. It is a decode
// structure (graphs and edge-id layout) for the sliding window of
// internal/stream; it has no closing layer to drain a feed into.
func NewWindowVolume(code surface.Code, layers, wh, wv, wd int) *Volume {
	return newVolume(code, layers, wh, wv, wd, true)
}

func newVolume(code surface.Code, rounds, wh, wv, wd int, window bool) *Volume {
	if rounds < 1 {
		panic("spacetime: need at least one measurement round")
	}
	if wh < 1 || wv < 1 || wd < 0 {
		panic("spacetime: edge weights must be positive")
	}
	nq, nc := code.Qubits(), code.Checks()
	v := &Volume{
		L: code.Distance(), T: rounds, WH: wh, WV: wv, WD: wd,
		code:    code,
		nq:      nq,
		nc:      nc,
		det:     (rounds + 1) * nc,
		horiz:   rounds * nq,
		diagOff: rounds * (nq + nc),
	}
	if window {
		v.det = rounds * nc
	}
	v.nodes = v.det
	if window || code.Open() {
		v.nodes++
	}
	if lat, ok := code.(*toric.Lattice); ok {
		v.lat = lat
	}
	if wd > 0 {
		sch := code.ExtractionSchedule()
		v.diagX, v.diagZ = sch.DiagX, sch.DiagZ
	}
	v.graphX = v.buildGraph(code.SectorGraph(false), v.diagX)
	v.graphZ = v.buildGraph(code.SectorGraph(true), v.diagZ)
	return v
}

// buildGraph extrudes a 2D sector graph into the weighted space-time
// volume. Node (c, t) has index t·nc + c, layer 0 the oldest; the single
// boundary node, when there is one, is the last. Edge ids: horizontal
// edge (e, t) = t·nq + e for layers t = 0…T−1 (a data error entering at
// round t+1), then vertical edge (c, t) = T·nq + t·nc + c joining layers
// t and t+1 of check c (a measurement error at round t+1), then —
// circuit volumes only — diagonal edge (e, t) = T·(nq+nc) + t·nq + e
// joining data edge e's late reader at layer t to its early reader at
// layer t+1 (a data error created between the two reads of round t+1).
// Open codes map the 2D boundary endpoint of every layer onto the
// boundary node; a boundary-truncated diagonal (the qubit has one reader
// in the sector, so the mid-round fault defects only (c, t+1)) grounds
// there too. In a window volume layer T is the future boundary: edges
// reaching it ground on the same node, and a truncated diagonal whose
// lone defect would fall there stands in at layer T−1, like the virtual
// verticals (it can never commit — the commit boundary lies below it).
func (v *Volume) buildGraph(base *decoder.Graph, diag [][2]int32) *decoder.Graph {
	n := v.diagOff
	if v.WD > 0 {
		n += v.T * v.nq
	}
	nc, bnd := int32(v.nc), int32(v.det)
	node := func(t int, c int32) int32 {
		if c == nc || (t+1)*v.nc > v.det {
			return bnd
		}
		return int32(t)*nc + c
	}
	ends := make([][2]int32, n)
	weights := make([]int32, n)
	for t := 0; t < v.T; t++ {
		off := t * v.nq
		for e := 0; e < v.nq; e++ {
			a, b := base.Ends(e)
			ends[off+e] = [2]int32{node(t, int32(a)), node(t, int32(b))}
			weights[off+e] = int32(v.WH)
		}
		off = v.horiz + t*v.nc
		for c := int32(0); c < nc; c++ {
			ends[off+int(c)] = [2]int32{node(t, c), node(t+1, c)}
			weights[off+int(c)] = int32(v.WV)
		}
		if v.WD == 0 {
			continue
		}
		off = v.diagOff + t*v.nq
		for e := 0; e < v.nq; e++ {
			late, early := diag[e][0], diag[e][1]
			if early < 0 {
				lone := node(t+1, late)
				if lone == bnd {
					lone = node(t, late)
				}
				ends[off+e] = [2]int32{lone, bnd}
			} else {
				ends[off+e] = [2]int32{node(t, late), node(t+1, early)}
			}
			weights[off+e] = int32(v.WD)
		}
	}
	var boundary []int
	if v.nodes > v.det {
		boundary = []int{v.det}
	}
	return decoder.NewGraph(v.nodes, ends, weights, boundary)
}

// CommitEdges folds one correction edge list into a lane's running
// frame, cut at layer `commit`: horizontal edges below the cut flip
// their data qubit; a vertical edge crossing it severs its chain there,
// flipping the carry defect at the cut layer. A diagonal edge spanning
// the cut (lower endpoint at layer commit−1) is a data error whose late
// observation is already committed: its data qubit flips now and the
// severed upper endpoint — the early reader's check at the carry layer
// (or, for a boundary-truncated diagonal, the lone reader's check, whose
// single defect sits at the carry layer) — becomes the carry defect,
// exactly like a cut vertical chain. Everything at or above the cut
// (including every edge onto the future boundary) is discarded — the
// next window re-decodes it with more context. With commit > T nothing
// is cut: the fold is the projection of a whole-volume correction onto
// its data qubits (vertical edges are measurement-error assignments and
// project away) and carry is never touched. The caller clears the carry
// first.
func (v *Volume) CommitEdges(corr []int32, commit int, dual bool, frameVec, carry bits.Vec) {
	diag := v.diagX
	if dual {
		diag = v.diagZ
	}
	for _, id := range corr {
		e := int(id)
		switch {
		case e < v.horiz:
			if e/v.nq < commit {
				frameVec.Flip(e % v.nq)
			}
		case e < v.diagOff:
			if t := (e - v.horiz) / v.nc; t == commit-1 {
				carry.Flip((e - v.horiz) % v.nc)
			}
		default:
			de := e - v.diagOff
			switch t := de / v.nq; {
			case t+1 < commit:
				frameVec.Flip(de % v.nq)
			case t == commit-1:
				frameVec.Flip(de % v.nq)
				if early := diag[de%v.nq][1]; early >= 0 {
					carry.Flip(int(early))
				} else {
					carry.Flip(int(diag[de%v.nq][0]))
				}
			}
		}
	}
}

// Graph returns the primal (plaquette-sector) space-time graph.
func (v *Volume) Graph() *decoder.Graph { return v.graphX }

// DualGraph returns the dual (star-sector) space-time graph.
func (v *Volume) DualGraph() *decoder.Graph { return v.graphZ }

// Code returns the surface.Code the volume decodes.
func (v *Volume) Code() surface.Code { return v.code }

// weightScale is the target magnitude of the larger LLR weight before
// gcd normalization: fine enough to separate p from q likelihoods,
// small enough that weighted union-find growth stays a handful of
// sweeps per graph distance.
const weightScale = 12

// Weights converts the physical error rates into the integer edge
// weights of the volume: wh ∝ log((1−p)/p) for data edges, wv ∝
// log((1−q)/q) for measurement edges, scaled so the larger is
// weightScale, capped so an impossible channel (q = 0) can never be
// cheaper than any detour that avoids it, and gcd-normalized — p = q
// yields the unit-weight (1, 1) graph.
func Weights(p, q float64, l, rounds int) (wh, wv int) {
	lp := clampLLR(p)
	lq := clampLLR(q)
	m := lp
	if lq > m {
		m = lq
	}
	wh = int(math.Round(weightScale * lp / m))
	wv = int(math.Round(weightScale * lq / m))
	if wh < 1 {
		wh = 1
	}
	if wv < 1 {
		wv = 1
	}
	// An all-horizontal detour never exceeds wh·L; an all-vertical one,
	// wv·rounds. Weights beyond those bounds are indistinguishable from
	// "never", so cap them and keep the normalized integers small.
	if lim := wh*l + 1; wv > lim {
		wv = lim
	}
	if lim := wv*rounds + 1; wh > lim {
		wh = lim
	}
	g := gcd(wh, wv)
	return wh / g, wv / g
}

// clampLLR returns log((1−x)/x) clamped to a positive finite range.
func clampLLR(x float64) float64 {
	if x < 1e-9 {
		x = 1e-9
	}
	if x > 0.5 {
		x = 0.5
	}
	v := math.Log((1 - x) / x)
	if v < 1e-9 {
		v = 1e-9
	}
	return v
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Decode returns the projected spatial correction for one lane's 3D
// defect set, decoded from scratch: the decoder runs on the space-time
// graph of the chosen sector and the space-like correction edges are
// XOR-ed onto their data qubits (time-like edges are measurement-error
// assignments and project away). DecoderExact is Match; every other
// kind runs the weighted union-find decoder, seeding its peeling pass
// with erased — the lane's located faults in canonical ascending
// edge-id order (AppendErased, then Reprice for a correlated dual), or
// nil. It is the per-lane reference the fast paths are checked against;
// the exact matcher takes no erased list.
func (v *Volume) Decode(defects, erased []int, kind toric.DecoderKind, dual bool) bits.Vec {
	corr := bits.NewVec(v.nq)
	switch {
	case kind == toric.DecoderExact:
		v.Match(defects, dual, new(decoder.Matcher), corr)
	case len(defects) > 0:
		g := v.graphX
		if dual {
			g = v.graphZ
		}
		v.CommitEdges(decoder.NewUnionFind(g).AppendCorrection(nil, defects, erased), v.T+1, dual, corr, bits.Vec{})
	}
	return corr
}

// Match XORs onto corr the projected correction of one sector's
// ascending defect set over the closed volume, matched by the blossom
// matcher m on the complete graph of the volume's offset metric —
// wh·d₂ + wv·|Δt| on a plain volume, with the diagonal shortcuts on a
// circuit one. Torus volumes only.
func (v *Volume) Match(defects []int, dual bool, m *decoder.Matcher, corr bits.Vec) {
	if v.lat == nil {
		panic("spacetime: exact matching prices pairs with the torus metric; open-boundary codes decode with union-find")
	}
	if len(defects) == 0 {
		return
	}
	// Pair distances: the volume's offset metric table. The correction
	// chain emitted per pair is the canonical short-way 2D path — on
	// weight ties between a winding and a non-winding 3D path the
	// canonical chain stands in for the matcher's choice, the same
	// convention the 2D matcher uses for antipodal pairs.
	dist, distZ := v.metric()
	if dual {
		dist = distZ
	}
	span := 2*v.T + 1
	weight := func(i, j int) int64 {
		a, b := defects[i], defects[j]
		ca, cb := a%v.nc, b%v.nc
		dx, dy := mod(cb%v.L-ca%v.L, v.L), mod(cb/v.L-ca/v.L, v.L)
		return dist[(dy*v.L+dx)*span+(b/v.nc-a/v.nc)+v.T]
	}
	for _, pr := range m.MinWeightPairs(len(defects), weight) {
		ca, cb := defects[pr[0]]%v.nc, defects[pr[1]]%v.nc
		if ca == cb {
			continue
		}
		if dual {
			v.lat.PathBetweenDual(ca, cb, corr)
		} else {
			v.lat.PathBetween(ca, cb, corr)
		}
	}
}

// LayerFeed is the layer-source contract between syndrome-extraction
// models and the decoders: T calls of NextLayers emit the noisy rounds'
// difference-syndrome layers (check-major, one vector of lane bits per
// check), CloseLayers emits the perfect closing layer, and Windings
// reads the accumulated error chains' homology parities. A feed that is
// Erasing (an erasure channel or leakage in its noise) emits its rounds
// through NextLayersErased instead, which adds the round's erasure
// planes: eraH qubit-major (Qubits() planes: lanes whose data qubit is a
// located fault this layer), lostX/lostZ check-major (Checks() planes
// per sector: lanes whose ancilla measurement read as a coin). The
// streaming pipeline (internal/stream) drains every feed and reads
// NextLayersErased exactly when it is Erasing. surface.LayerSource (phenomenological) and surface.CircuitSource
// (circuit-level) are its two implementations.
type LayerFeed interface {
	Code() surface.Code
	Lanes() int
	Rounds() int
	Erasing() bool
	NextLayers(layerX, layerZ []bits.Vec)
	NextLayersErased(layerX, layerZ, eraH, lostX, lostZ []bits.Vec)
	CloseLayers(layerX, layerZ []bits.Vec)
	Windings(pX1, pX2, pZ1, pZ2 bits.Vec)
}

// CheckFeed panics on a feed that cannot drive a decoder built for
// code: already drained, or extracting on another code (family,
// schedule or distance).
func CheckFeed(src LayerFeed, code surface.Code) {
	if src.Rounds() != 0 {
		panic("spacetime: layer feed already drained")
	}
	if c := src.Code(); c.CodeName() != code.CodeName() || c.Distance() != code.Distance() {
		panic("spacetime: layer feed code does not match the decoder's")
	}
}

// CrossingEstimate linearly interpolates the first sign change of the
// (large − small) failure-rate difference over the grid — the threshold
// estimate every sweep (library and CLI) shares. NaN when the curves
// never cross.
func CrossingEstimate(grid, small, large []float64) float64 {
	for i := 1; i < len(grid); i++ {
		d0 := large[i-1] - small[i-1]
		d1 := large[i] - small[i]
		if d0 < 0 && d1 >= 0 {
			return grid[i-1] + d0/(d0-d1)*(grid[i]-grid[i-1])
		}
	}
	return math.NaN()
}
