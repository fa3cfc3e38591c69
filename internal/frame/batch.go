package frame

import (
	"math/rand/v2"

	"ftqc/internal/bits"
	"ftqc/internal/circuit"
	"ftqc/internal/noise"
)

// BatchSim is the bit-parallel Pauli-frame simulator: it advances W
// independent Monte Carlo shots ("lanes") at once. Each wire owns three
// bit-planes of length W — the X frame, the Z frame and the leakage flags
// — so Clifford frame propagation is word-wide XOR/AND over lanes and
// stochastic fault injection is the sampling of random lane masks.
//
// Data-dependent gadget control flow (syndrome repetition, ancilla
// verification retries) is expressed through the active-lane mask: a
// gadget pushes the mask of lanes that take a branch, replays the branch's
// ops (which then only touch — and only draw randomness for — those
// lanes), and pops. Under a LockstepSampler this makes every lane
// bit-identical to a scalar Sim run from the paired stream; under an
// AggregateSampler it is the fast production configuration.
type BatchSim struct {
	n, w int
	fx   []bits.Vec // per wire: X-frame plane over lanes
	fz   []bits.Vec // per wire: Z-frame plane
	lk   []bits.Vec // per wire: leakage plane
	P    noise.Params
	smp  Sampler

	active bits.Vec   // lanes currently executing
	stack  []bits.Vec // pushed active masks

	// FaultCount totals injected faults across all lanes (diagnostics).
	FaultCount int
	// LocationCount counts fault locations executed (lockstep count: a
	// location masked to a subset of lanes still counts once).
	LocationCount int

	// Scripted single-fault injection, the batch port of Sim.Trigger:
	// when lane L's per-lane location counter reaches trigger[L],
	// TriggerFault runs for that lane with the location's qubits.
	// Per-lane counters advance only while the lane is active, exactly
	// like the scalar LocationCount advances only on locations the shot
	// executes.
	trigger      []int
	locCount     []int
	TriggerFault func(b *BatchSim, lane int, qubits []int)

	t0, t1, t2, t3 bits.Vec // scratch planes
	pointBuf       [2]int
	laneBuf        []int32 // RunRound: faulted lanes of the location in flight
}

// NewBatch returns a clean batch simulator of n qubits by w lanes drawing
// from smp. A nil sampler defaults to an AggregateSampler seeded like the
// scalar New(nil) fallback.
func NewBatch(n, w int, p noise.Params, smp Sampler) *BatchSim {
	if w <= 0 {
		panic("frame: batch needs at least one lane")
	}
	if smp == nil {
		smp = NewAggregateSampler(2, 3)
	}
	b := &BatchSim{n: n, w: w, P: p, smp: smp,
		fx: bits.NewVecs(n, w), fz: bits.NewVecs(n, w), lk: bits.NewVecs(n, w),
		active: bits.NewVec(w),
		t0:     bits.NewVec(w), t1: bits.NewVec(w), t2: bits.NewVec(w), t3: bits.NewVec(w),
	}
	b.active.SetAll()
	return b
}

// Reset returns the simulator to NewBatch's state on a new sampler (nil:
// NewBatch's default), keeping its planes and noise model: clean frames
// and leakage, every lane active, zeroed counters, no trigger armed.
func (b *BatchSim) Reset(smp Sampler) {
	if smp == nil {
		smp = NewAggregateSampler(2, 3)
	}
	b.smp = smp
	for _, planes := range [3][]bits.Vec{b.fx, b.fz, b.lk} {
		for _, p := range planes {
			p.Clear()
		}
	}
	for _, t := range [...]bits.Vec{b.t0, b.t1, b.t2, b.t3} {
		t.Clear()
	}
	b.stack = b.stack[:0]
	b.active.SetAll()
	b.FaultCount, b.LocationCount = 0, 0
	b.trigger, b.locCount, b.TriggerFault = nil, nil, nil
}

// N returns the number of qubits.
func (b *BatchSim) N() int { return b.n }

// Lanes returns the batch width W.
func (b *BatchSim) Lanes() int { return b.w }

// Active returns a copy of the current active-lane mask.
func (b *BatchSim) Active() bits.Vec { return b.active.Clone() }

// PushActive narrows execution to the given lanes until PopActive. The
// mask should be a subset of the current active mask (gadget branches
// always are).
func (b *BatchSim) PushActive(mask bits.Vec) {
	b.stack = append(b.stack, b.active)
	b.active = mask.Clone()
}

// PopActive restores the mask saved by the matching PushActive.
func (b *BatchSim) PopActive() {
	if len(b.stack) == 0 {
		panic("frame: PopActive without PushActive")
	}
	b.active = b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
}

// XError reports whether lane carries an X (or Y) error on qubit q.
func (b *BatchSim) XError(q, lane int) bool { return b.fx[q].Get(lane) }

// ZError reports whether lane carries a Z (or Y) error on qubit q.
func (b *BatchSim) ZError(q, lane int) bool { return b.fz[q].Get(lane) }

// Leaked reports whether qubit q has leaked on the given lane.
func (b *BatchSim) Leaked(q, lane int) bool { return b.lk[q].Get(lane) }

// PlaneX returns a copy of qubit q's X-frame plane.
func (b *BatchSim) PlaneX(q int) bits.Vec { return b.fx[q].Clone() }

// PlaneZ returns a copy of qubit q's Z-frame plane.
func (b *BatchSim) PlaneZ(q int) bits.Vec { return b.fz[q].Clone() }

// PlanesX returns the live X-frame planes of qubits [0, n) — read-only
// views for syndrome computation and validation harnesses; callers must
// not modify them.
func (b *BatchSim) PlanesX(n int) []bits.Vec { return b.fx[:n] }

// PlanesZ returns the live Z-frame planes of qubits [0, n) (read-only).
func (b *BatchSim) PlanesZ(n int) []bits.Vec { return b.fz[:n] }

// PlanesLeak returns the live leakage planes of qubits [0, n) — the
// read-only view an erasure-harvesting extraction source uses to turn
// leaked qubits into located faults.
func (b *BatchSim) PlanesLeak(n int) []bits.Vec { return b.lk[:n] }

// InjectX deterministically toggles an X error on one lane.
func (b *BatchSim) InjectX(q, lane int) { b.fx[q].Flip(lane) }

// InjectZ deterministically toggles a Z error on one lane.
func (b *BatchSim) InjectZ(q, lane int) { b.fz[q].Flip(lane) }

// ArmTrigger schedules TriggerFault on the given lane when that lane's
// location counter reaches loc (the batch port of Sim.Trigger; different
// lanes may trigger at different locations, so one batch run covers many
// fault locations of an exhaustive scan).
func (b *BatchSim) ArmTrigger(lane, loc int) {
	if b.trigger == nil {
		b.trigger = make([]int, b.w)
		for i := range b.trigger {
			b.trigger[i] = -1
		}
		b.locCount = make([]int, b.w)
	}
	b.trigger[lane] = loc
}

// DisarmTriggers stops scripted fault injection on every lane (the
// per-lane location counters keep advancing).
func (b *BatchSim) DisarmTriggers() { b.TriggerFault = nil }

// LaneLocationCount returns lane's per-lane location counter (valid once
// a trigger has been armed).
func (b *BatchSim) LaneLocationCount(lane int) int {
	if b.locCount == nil {
		return 0
	}
	return b.locCount[lane]
}

// pointAt marks a fault location on the given qubits.
func (b *BatchSim) pointAt(qubits []int) {
	b.LocationCount++
	if b.trigger == nil {
		return
	}
	for i := 0; i < b.active.Words(); i++ {
		for w := b.active.Word(i); w != 0; w &= w - 1 {
			lane := i*64 + trailingZeros(w)
			if b.locCount[lane] == b.trigger[lane] && b.TriggerFault != nil {
				b.TriggerFault(b, lane, qubits)
			}
			b.locCount[lane]++
		}
	}
}

func (b *BatchSim) point1(q int) {
	b.pointBuf[0] = q
	b.pointAt(b.pointBuf[:1])
}

func (b *BatchSim) point2(x, y int) {
	b.pointBuf[0], b.pointBuf[1] = x, y
	b.pointAt(b.pointBuf[:2])
}

// noise1 injects one-qubit gate noise (and leakage) on q, mirroring the
// scalar gate tail: gate-noise draw, Pauli draw on fault, leak draw.
func (b *BatchSim) noise1(q int, p float64) {
	b.smp.Bernoulli(p, b.active, b.t2)
	b.faults(q, -1)
	b.maybeLeak(q)
}

// faults draws and injects a fault for every lane of the fault mask t2,
// in ascending lane order, each from its lane's stream: a one-qubit
// fault on q when c < 0, a two-qubit fault on (q, c) otherwise.
func (b *BatchSim) faults(q, c int) {
	for i := 0; i < b.t2.Words(); i++ {
		for m := b.t2.Word(i); m != 0; m &= m - 1 {
			lane := i*64 + trailingZeros(m)
			if c < 0 {
				b.fault1(b.smp.Stream(lane), q, lane)
			} else {
				b.fault2(b.smp.Stream(lane), q, c, lane)
			}
		}
	}
}

// fault1 draws a one-qubit Pauli from rng (noise.Draw1) and applies it
// to q's frame in lane: one fault.
func (b *BatchSim) fault1(rng *rand.Rand, q, lane int) {
	b.apply(q, lane, noise.Draw1(rng, b.P.Bias))
	b.FaultCount++
}

// fault2 draws a two-qubit Pauli from rng (noise.Draw2) and applies its
// halves to a's and c's frames in lane: one fault per damaged qubit,
// as the scalar Sim counts.
func (b *BatchSim) fault2(rng *rand.Rand, a, c, lane int) {
	ea, eb := noise.Draw2(rng, b.P.Bias)
	b.apply(a, lane, ea)
	b.apply(c, lane, eb)
	if ea != noise.ErrNone {
		b.FaultCount++
	}
	if eb != noise.ErrNone {
		b.FaultCount++
	}
}

// apply toggles the Pauli e into q's frame in lane.
func (b *BatchSim) apply(q, lane int, e noise.PauliError) {
	if e&noise.ErrX != 0 {
		b.fx[q].Flip(lane)
	}
	if e&noise.ErrZ != 0 {
		b.fz[q].Flip(lane)
	}
}

func (b *BatchSim) maybeLeak(q int) {
	if b.P.Leak > 0 {
		b.smp.Bernoulli(b.P.Leak, b.active, b.t2)
		b.lk[q].Or(b.t2)
	}
}

// notLeaked1 computes active &^ leaked[q] into t3 and returns it.
func (b *BatchSim) notLeaked1(q int) bits.Vec {
	b.t3.CopyFrom(b.active)
	b.t3.AndNot(b.lk[q])
	return b.t3
}

// --- gates (frame conjugation + noise), one plane op per 64 lanes ---

// H applies a Hadamard: X ↔ Z in the frame of every active, unleaked lane.
func (b *BatchSim) H(q int) {
	b.point1(q)
	m := b.notLeaked1(q)
	b.t0.CopyFrom(b.fx[q])
	b.t0.Xor(b.fz[q])
	b.t0.And(m)
	b.fx[q].Xor(b.t0)
	b.fz[q].Xor(b.t0)
	b.noise1(q, b.P.Gate1)
}

// S applies the phase gate: X → Y (X errors gain a Z component).
func (b *BatchSim) S(q int) {
	b.point1(q)
	m := b.notLeaked1(q)
	b.t0.CopyFrom(b.fx[q])
	b.t0.And(m)
	b.fz[q].Xor(b.t0)
	b.noise1(q, b.P.Gate1)
}

// Sdg applies the inverse phase gate (same frame action as S).
func (b *BatchSim) Sdg(q int) { b.S(q) }

// PauliGate applies a deliberate X/Y/Z gate: only its noise matters.
func (b *BatchSim) PauliGate(q int) {
	b.point1(q)
	b.noise1(q, b.P.Gate1)
}

// CNOT propagates X errors control→target and Z errors target→control.
func (b *BatchSim) CNOT(a, c int) {
	b.point2(a, c)
	m := b.t3
	m.CopyFrom(b.active)
	m.AndNot(b.lk[a])
	m.AndNot(b.lk[c])
	b.t0.CopyFrom(b.fx[a])
	b.t0.And(m)
	b.fx[c].Xor(b.t0)
	b.t0.CopyFrom(b.fz[c])
	b.t0.And(m)
	b.fz[a].Xor(b.t0)
	b.noise2(a, c)
}

// CZ deposits Z on the partner of any X error.
func (b *BatchSim) CZ(a, c int) {
	b.point2(a, c)
	m := b.t3
	m.CopyFrom(b.active)
	m.AndNot(b.lk[a])
	m.AndNot(b.lk[c])
	b.t0.CopyFrom(b.fx[a])
	b.t0.And(m)
	b.fz[c].Xor(b.t0)
	b.t0.CopyFrom(b.fx[c])
	b.t0.And(m)
	b.fz[a].Xor(b.t0)
	b.noise2(a, c)
}

// noise2 injects two-qubit gate noise on (a, c) then the two leak draws,
// in the scalar order.
func (b *BatchSim) noise2(a, c int) {
	b.smp.Bernoulli(b.P.Gate2, b.active, b.t2)
	b.faults(a, c)
	b.maybeLeak(a)
	b.maybeLeak(c)
}

// PrepZ resets active lanes of q to |0⟩; a faulty preparation leaves |1⟩.
func (b *BatchSim) PrepZ(q int) {
	b.fx[q].AndNot(b.active)
	b.fz[q].AndNot(b.active)
	b.lk[q].AndNot(b.active)
	b.point1(q)
	b.smp.Bernoulli(b.P.Prep, b.active, b.t2)
	b.fx[q].Or(b.t2)
	b.FaultCount += b.t2.Weight()
}

// PrepX resets active lanes of q to |+⟩; a faulty preparation leaves |−⟩
// (a Z error).
func (b *BatchSim) PrepX(q int) {
	b.fx[q].AndNot(b.active)
	b.fz[q].AndNot(b.active)
	b.lk[q].AndNot(b.active)
	b.point1(q)
	b.smp.Bernoulli(b.P.Prep, b.active, b.t2)
	b.fz[q].Or(b.t2)
	b.FaultCount += b.t2.Weight()
}

// MeasZ measures q on every active lane and returns the plane of flip
// bits relative to the noiseless reference (bits outside the active mask
// are 0). Leaked lanes read a coin flip.
func (b *BatchSim) MeasZ(q int) bits.Vec {
	out := bits.NewVec(b.w)
	b.measure(q, b.fx[q], out)
	return out
}

// MeasX measures in the Hadamard basis: the flip bit reads the Z frame.
func (b *BatchSim) MeasX(q int) bits.Vec {
	out := bits.NewVec(b.w)
	b.measure(q, b.fz[q], out)
	return out
}

// MeasZInto is MeasZ writing the flip plane into out (len = Lanes) — the
// allocation-free form the syndrome-extraction hot loop uses.
func (b *BatchSim) MeasZInto(q int, out bits.Vec) { b.measure(q, b.fx[q], out) }

// MeasXInto is MeasX writing the flip plane into out.
func (b *BatchSim) MeasXInto(q int, out bits.Vec) { b.measure(q, b.fz[q], out) }

func (b *BatchSim) measure(q int, plane, out bits.Vec) {
	b.point1(q)
	out.CopyFrom(plane)
	out.And(b.active)
	lm := b.t3
	lm.CopyFrom(b.lk[q])
	lm.And(b.active)
	if lm.Any() {
		b.smp.Coin(lm, b.t1)
		out.AndNot(lm)
		out.Or(b.t1)
	}
	b.smp.Bernoulli(b.P.Meas, b.active, b.t2)
	out.Xor(b.t2)
	b.FaultCount += b.t2.Weight()
}

// Storage applies one idle step of storage noise to q.
func (b *BatchSim) Storage(q int) {
	b.point1(q)
	b.smp.Bernoulli(b.P.Storage, b.active, b.t2)
	b.faults(q, -1)
}

// FrameX toggles a noiseless X correction on every active lane of q.
func (b *BatchSim) FrameX(q int) { b.fx[q].Xor(b.active) }

// FrameZ toggles a noiseless Z correction on every active lane of q.
func (b *BatchSim) FrameZ(q int) { b.fz[q].Xor(b.active) }

// XorFrameX toggles an X correction on exactly the lanes of mask (the
// per-lane form the batched decoders use).
func (b *BatchSim) XorFrameX(q int, mask bits.Vec) { b.fx[q].Xor(mask) }

// XorFrameZ toggles a Z correction on exactly the lanes of mask.
func (b *BatchSim) XorFrameZ(q int, mask bits.Vec) { b.fz[q].Xor(mask) }

// ReplaceLeaked swaps q for a fresh |0⟩ on the lanes of mask: leakage is
// cleared and the frame randomized (an erasure for the next recovery).
func (b *BatchSim) ReplaceLeaked(q int, mask bits.Vec) {
	b.lk[q].AndNot(mask)
	b.smp.Coin(mask, b.t0)
	b.fx[q].AndNot(mask)
	b.fx[q].Or(b.t0)
	b.smp.Coin(mask, b.t0)
	b.fz[q].AndNot(mask)
	b.fz[q].Or(b.t0)
}

// ClearRegion resets frame and leakage on the given qubits for every
// active lane.
func (b *BatchSim) ClearRegion(qubits []int) {
	for _, q := range qubits {
		b.fx[q].AndNot(b.active)
		b.fz[q].AndNot(b.active)
		b.lk[q].AndNot(b.active)
	}
}

// Run executes a compiled circuit across all lanes: gates with their
// noise, storage noise on every qubit idle in a moment, measurement
// planes indexed by result slot. It is the batched analogue of Sim.Run.
func (b *BatchSim) Run(c *circuit.Circuit) []bits.Vec {
	if c.N != b.n {
		panic("frame: circuit size mismatch")
	}
	out := make([]bits.Vec, c.NumMeas)
	first := make([]int, c.N)
	last := make([]int, c.N)
	for q := range first {
		first[q] = -1
	}
	for mi, m := range c.Moments {
		for _, op := range m.Ops {
			if first[op.A] < 0 {
				first[op.A] = mi
			}
			last[op.A] = mi
			if op.B >= 0 {
				if first[op.B] < 0 {
					first[op.B] = mi
				}
				last[op.B] = mi
			}
		}
	}
	for mi, m := range c.Moments {
		busy := make([]bool, c.N)
		for _, op := range m.Ops {
			busy[op.A] = true
			if op.B >= 0 {
				busy[op.B] = true
			}
			switch op.Kind {
			case circuit.KindH:
				b.H(op.A)
			case circuit.KindS, circuit.KindSdg:
				b.S(op.A)
			case circuit.KindX, circuit.KindY, circuit.KindZ:
				b.PauliGate(op.A)
			case circuit.KindCNOT:
				b.CNOT(op.A, op.B)
			case circuit.KindCZ:
				b.CZ(op.A, op.B)
			case circuit.KindPrepZ:
				b.PrepZ(op.A)
			case circuit.KindMeasZ:
				out[op.M] = b.MeasZ(op.A)
			case circuit.KindMeasX:
				out[op.M] = b.MeasX(op.A)
			}
		}
		if b.P.Storage > 0 {
			for q := 0; q < c.N; q++ {
				if !busy[q] && first[q] >= 0 && mi > first[q] && mi < last[q] {
					b.Storage(q)
				}
			}
		}
	}
	return out
}
