package surface

import (
	"ftqc/internal/bits"
	"ftqc/internal/decoder"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
)

// LayerSource samples a phenomenological noisy-extraction history round
// by round for any Code: fresh X and Z data errors at rate p per qubit
// per round, check measurements flipped with probability q, and the
// consecutive-round syndrome differences emitted as check-major layer
// planes. Draw order per round: X qubit planes, Z qubit planes, primal
// measurement masks, dual measurement masks — all in index order, so
// any experiment built on a source is a pure function of the sampler
// stream. Whole-volume and sliding-window decodes consume the same
// source, which is what makes them statistically identical by
// construction.
type LayerSource struct {
	code   Code
	p, q   float64
	pe, qe float64 // erasure rates of NextLayersErased
	lanes  int
	smp    frame.Sampler
	rounds int

	active, tmp  bits.Vec
	intact, coin bits.Vec        // erasure-path scratch, built on first use
	pos          []int32         // faulted trials of the block walk in flight
	sec          [2]sectorErrors // primal (X errors), dual (Z errors)
	diff         *SyndromeDiff
}

// sectorErrors is one sector's half of a LayerSource: the accumulated
// error planes and the true syndrome they have. The source owns that
// syndrome and keeps it current fault by fault — a flipped data qubit
// flips the two nodes its sector-graph edge joins — so no round
// recomputes it. syn has a plane per graph node: an open code's boundary
// node gets one nobody reads.
type sectorErrors struct {
	g   *decoder.Graph
	cum []bits.Vec // qubit-major accumulated error planes
	syn slab       // node-major true syndrome of cum, checks first
}

// flipLane toggles data qubit e on one lane.
func (x *sectorErrors) flipLane(e, lane int) {
	u, v := x.g.Ends(e)
	x.cum[e].Flip(lane)
	x.syn.v[u].Flip(lane)
	x.syn.v[v].Flip(lane)
}

// flipPlane toggles data qubit e on every lane of a sampled flip plane.
func (x *sectorErrors) flipPlane(e int, flips bits.Vec) {
	if flips.Any() {
		u, v := x.g.Ends(e)
		x.cum[e].Xor(flips)
		x.syn.v[u].Xor(flips)
		x.syn.v[v].Xor(flips)
	}
}

// NewLayerSource returns a phenomenological source over the code for
// `lanes` parallel shots drawing from smp.
func NewLayerSource(code Code, p, q float64, lanes int, smp frame.Sampler) *LayerSource {
	return NewLayerSourceErased(code, p, q, 0, 0, lanes, smp)
}

// NewLayerSourceErased is NewLayerSource with the two erasure channels
// of NextLayersErased: data-qubit leakage at pe and lost measurements at
// qe per round.
func NewLayerSourceErased(code Code, p, q, pe, qe float64, lanes int, smp frame.Sampler) *LayerSource {
	s := &LayerSource{
		code: code, p: p, q: q, pe: pe, qe: qe, lanes: lanes, smp: smp,
		active: bits.NewVec(lanes),
		tmp:    bits.NewVec(lanes),
		diff:   NewSyndromeDiff(code.Checks(), lanes),
	}
	for i := range s.sec {
		g := code.SectorGraph(i == 1)
		s.sec[i] = sectorErrors{g: g, cum: bits.NewVecs(code.Qubits(), lanes), syn: newSlab(g.Nodes(), lanes)}
	}
	s.active.SetAll()
	return s
}

// Reset returns the source to its just-built state on a new sampler —
// no rounds emitted, no accumulated errors — so it emits what a new
// source of its code and rates on smp would.
func (s *LayerSource) Reset(smp frame.Sampler) {
	s.smp, s.rounds = smp, 0
	for i := range s.sec {
		for _, p := range s.sec[i].cum {
			p.Clear()
		}
		clear(s.sec[i].syn.w)
	}
	s.diff.Reset()
}

// Code returns the code the source extracts on.
func (s *LayerSource) Code() Code { return s.code }

// Lanes returns the batch width.
func (s *LayerSource) Lanes() int { return s.lanes }

// Rounds returns how many noisy rounds have been emitted.
func (s *LayerSource) Rounds() int { return s.rounds }

// Erasing reports whether the source carries an erasure channel (pe or
// qe > 0): its rounds carry erasure planes and drain through
// NextLayersErased.
func (s *LayerSource) Erasing() bool { return s.pe > 0 || s.qe > 0 }

// NextLayers advances one noisy extraction round and writes its
// difference-syndrome layers into layerX and layerZ (check-major,
// Checks() vectors each). The round is four block walks of the sampler
// (data planes at p, measurement planes at q, per sector) — the stream
// of one Bernoulli call per plane at the cost of the faults alone.
func (s *LayerSource) NextLayers(layerX, layerZ []bits.Vec) {
	for i := range s.sec {
		x := &s.sec[i]
		s.pos = s.smp.BernoulliBlock(s.p, len(x.cum), s.lanes, s.pos[:0])
		for _, t := range s.pos {
			x.flipLane(int(t)/s.lanes, int(t)%s.lanes)
		}
	}
	for i, cur := range [2]slab{s.diff.curX, s.diff.curZ} {
		copy(cur.w, s.sec[i].syn.w) // the check planes lead the node planes
		s.pos = s.smp.BernoulliBlock(s.q, len(cur.v), s.lanes, s.pos[:0])
		for _, t := range s.pos {
			cur.v[int(t)/s.lanes].Flip(int(t) % s.lanes)
		}
	}
	s.diff.Emit(layerX, layerZ)
	s.rounds++
}

// NextLayersErased is NextLayers with the two erasure channels whose
// rates the source was constructed with (NewLayerSourceErased), both
// reported as known fault locations for the union-find peeling pass:
// each data qubit leaks with probability pe per round (it depolarizes —
// flips with probability ½ in each sector independently — and is
// marked in eraH, one plane per qubit), and each check measurement is
// lost with probability qe (its observed value is replaced by a fair
// coin and marked in lostX/lostZ, one plane per check). Draw order:
// leakage planes, X intact flips, X leaked coins, Z intact flips, Z
// leaked coins, primal measurement masks, lost primal masks, lost
// primal coins, then the dual sector's three — all plane-at-a-time in
// index order (masked draws: there is no full-mask block to walk).
func (s *LayerSource) NextLayersErased(layerX, layerZ, eraH, lostX, lostZ []bits.Vec) {
	nq := s.code.Qubits()
	if s.intact.Len() == 0 {
		s.intact = bits.NewVec(s.lanes)
		s.coin = bits.NewVec(s.lanes)
	}
	for e := 0; e < nq; e++ {
		s.smp.Bernoulli(s.pe, s.active, eraH[e])
	}
	for i := range s.sec {
		sec := &s.sec[i]
		for e := 0; e < nq; e++ {
			s.intact.CopyFrom(s.active)
			s.intact.AndNot(eraH[e])
			s.smp.Bernoulli(s.p, s.intact, s.tmp)
			sec.flipPlane(e, s.tmp)
		}
		for e := 0; e < nq; e++ {
			s.smp.Bernoulli(0.5, eraH[e], s.tmp)
			sec.flipPlane(e, s.tmp)
		}
	}
	s.observeLossy(s.sec[0].syn, s.diff.curX, lostX)
	s.observeLossy(s.sec[1].syn, s.diff.curZ, lostZ)
	s.diff.Emit(layerX, layerZ)
	s.rounds++
}

// observeLossy measures one sector's checks with flip rate q, then
// loses each measurement with probability qe: a lost measurement reads
// as a fair coin, whatever the truth.
func (s *LayerSource) observeLossy(syn, obs slab, lost []bits.Vec) {
	copy(obs.w, syn.w)
	cur := obs.v
	for c := range cur {
		s.smp.Bernoulli(s.q, s.active, s.tmp)
		cur[c].Xor(s.tmp)
	}
	for c := range cur {
		s.smp.Bernoulli(s.qe, s.active, lost[c])
	}
	for c := range cur {
		s.smp.Coin(lost[c], s.coin)
		cur[c].AndNot(lost[c])
		cur[c].Or(s.coin)
	}
}

// CloseLayers writes the closing perfect round's difference layers: the
// true syndromes of the accumulated errors, no fresh faults, no
// measurement noise.
func (s *LayerSource) CloseLayers(layerX, layerZ []bits.Vec) {
	copy(s.diff.curX.w, s.sec[0].syn.w)
	copy(s.diff.curZ.w, s.sec[1].syn.w)
	s.diff.Emit(layerX, layerZ)
}

// Windings accumulates the logical-failure-detector parities of the
// accumulated error chains (the layer-feed homology contract; open
// codes leave the second parity of each sector untouched).
func (s *LayerSource) Windings(pX1, pX2, pZ1, pZ2 bits.Vec) {
	s.code.LogicalPlanes(false, s.sec[0].cum, pX1, pX2)
	s.code.LogicalPlanes(true, s.sec[1].cum, pZ1, pZ2)
}

// ErrorPlanes returns the live accumulated error planes of the two
// sectors (qubit-major). Read-only views for validation harnesses.
func (s *LayerSource) ErrorPlanes() (x, z []bits.Vec) { return s.sec[0].cum, s.sec[1].cum }

// roundPlan returns the schedule's extraction round compiled into a
// frame.RoundPlan, built on first use and shared by every
// CircuitSource of the code — the one description of the round, and the
// location numbering ArmTrigger scripts against: storage over all data
// qubits (whether or not P.Storage is zero), then per sector prep, four
// CNOT steps check by check (idle −1 steps skipped) and measurement,
// with primal measurements in slots 0…nc−1 and dual ones in slots
// nc…2nc−1.
// ReaderPairs has already rejected any schedule that reads a qubit
// twice in one step, so every CNOT block is qubit-disjoint as
// frame.RoundPlan.CNOTStep requires.
func (s *Schedule) roundPlan() *frame.RoundPlan {
	s.planOnce.Do(func() {
		nq, nc := len(s.DiagX), len(s.Plaq)
		pl := frame.NewRoundPlan()
		data := make([]int32, nq)
		for q := range data {
			data[q] = int32(q)
		}
		// The idle window (ancilla prep and measure time): one storage
		// step per data qubit, before any read — a same-round
		// ("horizontal") error for both sectors.
		pl.Storage(data)
		anc := make([]int32, nc)
		slot := make([]int32, nc)
		for dual, orders := range [2][][4]int{s.Plaq, s.Star} {
			for c := range anc {
				anc[c] = int32(nq + dual*nc + c)
				slot[c] = int32(dual*nc + c)
			}
			if dual == 0 {
				pl.PrepZ(anc)
			} else {
				pl.PrepX(anc)
			}
			for step := 0; step < 4; step++ {
				var as, qs []int32
				for c, ord := range orders {
					if q := ord[step]; q >= 0 {
						as = append(as, anc[c])
						qs = append(qs, int32(q))
					}
				}
				// Data X errors reach MeasZ through data-controlled CNOTs,
				// data Z errors reach MeasX through ancilla-controlled ones.
				if dual == 0 {
					pl.CNOTStep(qs, as)
				} else {
					pl.CNOTStep(as, qs)
				}
			}
			if dual == 0 {
				pl.MeasZ(anc, slot)
			} else {
				pl.MeasX(anc, slot)
			}
		}
		s.plan = pl
	})
	return s.plan
}

// CircuitSource runs circuit-level syndrome extraction for any Code on
// the batch frame engine: one ancilla per check, prepared, coupled to
// its data qubits by CNOTs in the code's schedule (idle −1 steps
// skipped — boundary checks of open codes have weight < 4), and
// measured, with stochastic faults at every circuit location
// (preparation, CNOT, measurement, idle storage) — the error model
// behind realistic threshold estimates (Steane quant-ph/9809054;
// Gottesman arXiv:2210.15844 §"noise models").
//
// The phenomenological model of LayerSource flips each data qubit and
// each measurement independently per round. The circuit model is
// strictly richer:
//
//   - A CNOT fault can damage the data qubit *between* the two adjacent
//     checks' reads of it, so one check sees the error this round and
//     the other only next round — a correlated "diagonal" space-time
//     defect pair that the decoding graph must carry as its own edge
//     class (see the Schedule's {late, early} reader tables).
//   - A fault on the ancilla mid-chain propagates through the remaining
//     CNOTs onto several data qubits at once ("hook" errors): Z hooks
//     from primal extraction land in the dual sector, X hooks from dual
//     extraction in the primal sector.
//   - Preparation and measurement faults reproduce the phenomenological
//     measurement-flip channel exactly (a vertical defect pair).
//
// Both sources satisfy the same layer-feed contract (Erasing, NextLayers
// or NextLayersErased, CloseLayers, Windings), so the streaming
// pipeline drains either unchanged; only the decoding graph differs
// (diagonal edges, circuit-derived weights — built by
// internal/spacetime from the code's Schedule).
//
// Qubit layout on the simulator: data qubits 0…Qubits()−1, primal-check
// ancillas Qubits()+c, dual-check ancillas Qubits()+Checks()+c.
type CircuitSource struct {
	code   Code
	sch    *Schedule
	sim    *frame.BatchSim
	lanes  int
	rounds int
	diff   *SyndromeDiff

	measBuf []bits.Vec // reused curX‖curZ slot table of the round plan
}

// NewCircuitSource returns a circuit-level source over the code for
// `lanes` parallel shots under the per-location noise model P, drawing
// from smp. With P.Leak > 0 every gate carries its leakage channel, a
// leaked data qubit is swapped for a fresh (randomized) one at the start
// of the next round, and the source is Erasing: it is drained with
// NextLayersErased, which reports every leak as a located fault — the
// erasure planes the decoder seeds its peeling with.
func NewCircuitSource(code Code, P noise.Params, lanes int, smp frame.Sampler) *CircuitSource {
	nc := code.Checks()
	return &CircuitSource{
		code:    code,
		sch:     code.ExtractionSchedule(),
		sim:     frame.NewBatch(code.Qubits()+2*nc, lanes, P, smp),
		lanes:   lanes,
		diff:    NewSyndromeDiff(nc, lanes),
		measBuf: make([]bits.Vec, 0, 2*nc),
	}
}

// Reset returns the source to its just-built state on a new sampler —
// no rounds emitted, a clean simulator (frame.BatchSim.Reset) — so it
// emits what a new source of its code and noise on smp would.
func (s *CircuitSource) Reset(smp frame.Sampler) {
	s.sim.Reset(smp)
	s.rounds = 0
	s.diff.Reset()
}

// Code returns the code the source extracts on.
func (s *CircuitSource) Code() Code { return s.code }

// Lanes returns the batch width.
func (s *CircuitSource) Lanes() int { return s.lanes }

// Rounds returns how many noisy rounds have been emitted.
func (s *CircuitSource) Rounds() int { return s.rounds }

// Erasing reports whether the source models leakage (P.Leak > 0): its
// rounds carry erasure planes and drain through NextLayersErased.
func (s *CircuitSource) Erasing() bool { return s.sim.P.Leak > 0 }

// NextLayers runs one extraction round, the schedule's round plan (see
// roundPlan), and writes its difference-syndrome layers into layerX and
// layerZ. Every gate carries its noise.Params fault channel, so any
// experiment built on a source is a pure function of the sampler stream.
func (s *CircuitSource) NextLayers(layerX, layerZ []bits.Vec) {
	if s.sim.P.Leak > 0 {
		panic("surface: NextLayers on a leaking source — an Erasing source drains with NextLayersErased")
	}
	s.runRound()
	s.diff.Emit(layerX, layerZ)
	s.rounds++
}

// runRound runs the schedule's compiled round plan, primal measurements
// into curX and dual ones into curZ, and reports whether it took the
// fused walk; frame.BatchSim.RunRound picks the executor (the fused
// walk, or the gate calls under leakage, a lockstep sampler, an armed
// trigger or a narrowed mask).
func (s *CircuitSource) runRound() (fused bool) {
	s.measBuf = append(append(s.measBuf[:0], s.diff.CurX()...), s.diff.CurZ()...)
	return s.sim.RunRound(s.sch.roundPlan(), s.measBuf)
}

// NextLayersErased is NextLayers for a leakage-modeling source: it runs
// the same extraction round and additionally harvests every leak as a
// located fault.
//
// Draw order per round, fixed so whole-volume and streaming drains of
// two equally-seeded sources stay bit-identical: (1) per data qubit in
// index order, the still-leaked lanes are recorded into eraH[e] and the
// qubit is replaced by a fresh randomized one (ReplaceLeaked — two Coin
// draws on non-empty masks only); (2) the round plan, location by
// location through the gate calls; (3) no further draws — round-end
// bookkeeping only reads planes.
//
// On return, eraH[e] (qubit-major, Qubits() planes) marks the lanes
// whose data qubit e is erased this layer (leaked at the start of the
// round — the replacement Pauli's syndrome lands here — or leaked
// mid-round, where the two readers may disagree), lostX[c]/lostZ[c]
// (check-major, Checks() planes each) mark the lanes whose primal/dual
// ancilla was leaked at its measurement (the outcome was a coin — a
// located vertical fault). The caller mirrors eraH onto the diagonal
// edge class when the decoding graph carries one.
func (s *CircuitSource) NextLayersErased(layerX, layerZ, eraH, lostX, lostZ []bits.Vec) {
	nq, nc := s.code.Qubits(), s.code.Checks()
	lk := s.sim.PlanesLeak(nq + 2*nc)
	for e := 0; e < nq; e++ {
		eraH[e].CopyFrom(lk[e])
		s.sim.ReplaceLeaked(e, eraH[e])
	}
	s.runRound()
	for e := 0; e < nq; e++ {
		eraH[e].Or(lk[e])
	}
	for c := 0; c < nc; c++ {
		lostX[c].CopyFrom(lk[nq+c])
		lostZ[c].CopyFrom(lk[nq+nc+c])
	}
	s.diff.Emit(layerX, layerZ)
	s.rounds++
}

// CloseLayers writes the closing perfect round's difference layers: the
// true syndromes of the accumulated data-qubit errors, computed
// directly from the simulator's frame planes — no circuit, no faults.
func (s *CircuitSource) CloseLayers(layerX, layerZ []bits.Vec) {
	nq := s.code.Qubits()
	s.code.CheckPlanes(false, s.sim.PlanesX(nq), s.diff.CurX())
	s.code.CheckPlanes(true, s.sim.PlanesZ(nq), s.diff.CurZ())
	s.diff.Emit(layerX, layerZ)
}

// Windings accumulates the logical-failure-detector parities of the
// accumulated data-error chains (residual ancilla frames are
// irrelevant — ancillas are re-prepared every round).
func (s *CircuitSource) Windings(pX1, pX2, pZ1, pZ2 bits.Vec) {
	nq := s.code.Qubits()
	s.code.LogicalPlanes(false, s.sim.PlanesX(nq), pX1, pX2)
	s.code.LogicalPlanes(true, s.sim.PlanesZ(nq), pZ1, pZ2)
}

// ErrorPlanes returns the live accumulated data-error planes of the two
// sectors (qubit-major). Read-only views for validation harnesses.
func (s *CircuitSource) ErrorPlanes() (x, z []bits.Vec) {
	nq := s.code.Qubits()
	return s.sim.PlanesX(nq), s.sim.PlanesZ(nq)
}
