package frame

// Scalar-vs-batch equivalence at the engine level: a BatchSim over a
// LockstepSampler must be bit-identical, lane by lane, to W scalar Sims
// run from the paired PCG streams — same measurement flips, same final
// frames, same leakage flags — on randomized Clifford circuits under
// randomized noise settings.

import (
	"math/rand/v2"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/circuit"
	"ftqc/internal/noise"
)

// randomCircuit generates a random Clifford circuit with preparations and
// measurements sprinkled in.
func randomCircuit(rng *rand.Rand, n, ops int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < ops; i++ {
		q := rng.IntN(n)
		switch rng.IntN(10) {
		case 0:
			c.H(q)
		case 1:
			c.S(q)
		case 2:
			c.X(q)
		case 3:
			c.Z(q)
		case 4, 5:
			r := rng.IntN(n)
			if r == q {
				r = (q + 1) % n
			}
			c.CNOT(q, r)
		case 6:
			r := rng.IntN(n)
			if r == q {
				r = (q + 1) % n
			}
			c.CZ(q, r)
		case 7:
			c.PrepZ(q)
		case 8:
			c.MeasZ(q)
		case 9:
			c.MeasX(q)
		}
	}
	// Always end with a full readout so every run has measurements.
	for q := 0; q < n; q++ {
		c.MeasZ(q)
	}
	return c
}

// noiseSettings is the grid of error models the equivalence suite sweeps:
// quiet, loud, storage-only, measurement-heavy, leaky, and biased.
func noiseSettings() []noise.Params {
	leaky := noise.Uniform(2e-2)
	leaky.Leak = 3e-2
	biased := noise.Uniform(5e-2)
	biased.Bias = 4
	return []noise.Params{
		noise.Uniform(0),
		noise.Uniform(1e-3),
		noise.Uniform(5e-2),
		noise.StorageOnly(3e-2),
		{Meas: 0.1, Prep: 0.05},
		leaky,
		biased,
	}
}

func TestBatchMatchesScalarOnRandomCircuits(t *testing.T) {
	const lanes = 67 // deliberately not a multiple of 64: exercises the tail word
	gen := rand.New(rand.NewPCG(42, 1))
	for trial := 0; trial < 30; trial++ {
		n := 2 + gen.IntN(7)
		c := randomCircuit(gen, n, 20+gen.IntN(60))
		p := noiseSettings()[trial%len(noiseSettings())]
		seed := uint64(1000 + trial)

		b := NewBatch(n, lanes, p, NewLockstepSampler(seed, lanes))
		planes := b.Run(c)

		for lane := 0; lane < lanes; lane++ {
			s := New(n, p, rand.New(rand.NewPCG(seed, uint64(lane))))
			out := s.Run(c)
			for m, bit := range out {
				if planes[m].Get(lane) != bit {
					t.Fatalf("trial %d lane %d: measurement %d batch=%v scalar=%v",
						trial, lane, m, planes[m].Get(lane), bit)
				}
			}
			for q := 0; q < n; q++ {
				if b.XError(q, lane) != s.XError(q) || b.ZError(q, lane) != s.ZError(q) {
					t.Fatalf("trial %d lane %d qubit %d: frame mismatch", trial, lane, q)
				}
				if b.Leaked(q, lane) != s.Leaked(q) {
					t.Fatalf("trial %d lane %d qubit %d: leak mismatch", trial, lane, q)
				}
			}
		}
	}
}

// TestBatchMatchesScalarGateByGate drives the two engines through the
// same hand-written op sequence (including ops Run never emits, like
// ReplaceLeaked and frame corrections) and compares state after every op.
func TestBatchMatchesScalarGateByGate(t *testing.T) {
	const lanes = 130
	p := noise.Uniform(0.05)
	p.Leak = 0.05
	p.Storage = 0.04
	const seed = 77
	const n = 4

	b := NewBatch(n, lanes, p, NewLockstepSampler(seed, lanes))
	sims := make([]*Sim, lanes)
	for i := range sims {
		sims[i] = New(n, p, rand.New(rand.NewPCG(seed, uint64(i))))
	}
	check := func(step string) {
		t.Helper()
		for lane, s := range sims {
			for q := 0; q < n; q++ {
				if b.XError(q, lane) != s.XError(q) || b.ZError(q, lane) != s.ZError(q) ||
					b.Leaked(q, lane) != s.Leaked(q) {
					t.Fatalf("%s: lane %d qubit %d diverged", step, lane, q)
				}
			}
		}
	}

	b.PrepZ(0)
	for _, s := range sims {
		s.PrepZ(0)
	}
	check("PrepZ")
	b.PrepX(3)
	for _, s := range sims {
		s.PrepX(3)
	}
	check("PrepX")
	b.H(0)
	for _, s := range sims {
		s.H(0)
	}
	check("H")
	b.S(1)
	for _, s := range sims {
		s.S(1)
	}
	check("S")
	b.CNOT(0, 1)
	for _, s := range sims {
		s.CNOT(0, 1)
	}
	check("CNOT")
	b.CZ(1, 2)
	for _, s := range sims {
		s.CZ(1, 2)
	}
	check("CZ")
	b.PauliGate(3)
	for _, s := range sims {
		s.PauliGate(3)
	}
	check("PauliGate")
	b.Storage(2)
	for _, s := range sims {
		s.Storage(2)
	}
	check("Storage")
	b.FrameX(0)
	b.FrameZ(2)
	for _, s := range sims {
		s.FrameX(0)
		s.FrameZ(2)
	}
	check("Frame corrections")

	mz := b.MeasZ(1)
	for lane, s := range sims {
		if got := s.MeasZ(1); got != mz.Get(lane) {
			t.Fatalf("MeasZ: lane %d batch=%v scalar=%v", lane, mz.Get(lane), got)
		}
	}
	check("MeasZ")
	mx := bits.NewVec(lanes)
	b.MeasXInto(2, mx)
	for lane, s := range sims {
		if got := s.MeasX(2); got != mx.Get(lane) {
			t.Fatalf("MeasXInto: lane %d batch=%v scalar=%v", lane, mx.Get(lane), got)
		}
	}
	check("MeasXInto")
	mx0 := b.MeasX(0)
	for lane, s := range sims {
		if got := s.MeasX(0); got != mx0.Get(lane) {
			t.Fatalf("MeasX: lane %d batch=%v scalar=%v", lane, mx0.Get(lane), got)
		}
	}
	check("MeasX")

	// ReplaceLeaked on the lanes where qubit 3 leaked.
	leakedLanes := b.Active()
	for lane := range sims {
		leakedLanes.Set(lane, b.Leaked(3, lane))
	}
	b.ReplaceLeaked(3, leakedLanes)
	for lane, s := range sims {
		if leakedLanes.Get(lane) {
			s.ReplaceLeaked(3)
		}
	}
	check("ReplaceLeaked")
}

// TestBatchTriggerMatchesScalar checks the scripted single-fault port:
// arming lane L at location L must reproduce the scalar Trigger run shot
// for shot in a noiseless circuit.
func TestBatchTriggerMatchesScalar(t *testing.T) {
	const n = 3
	p := noise.Uniform(0)
	build := func(s *Sim) {
		s.PrepZ(0)
		s.PrepZ(1)
		s.PrepZ(2)
		s.H(0)
		s.CNOT(0, 1)
		s.CNOT(1, 2)
		s.MeasZ(2)
	}
	// Scalar reference: one run per trigger location.
	const locations = 7
	type state struct{ fx, fz [n]bool }
	want := make([]state, locations)
	for loc := 0; loc < locations; loc++ {
		s := New(n, p, rand.New(rand.NewPCG(9, 9)))
		s.Trigger = loc
		s.TriggerFault = func(s *Sim, qubits []int) { s.InjectX(qubits[0]) }
		build(s)
		for q := 0; q < n; q++ {
			want[loc].fx[q] = s.XError(q)
			want[loc].fz[q] = s.ZError(q)
		}
	}
	// Batch: lane L triggers at location L.
	b := NewBatch(n, locations, p, NewLockstepSampler(9, locations))
	for lane := 0; lane < locations; lane++ {
		b.ArmTrigger(lane, lane)
	}
	b.TriggerFault = func(b *BatchSim, lane int, qubits []int) { b.InjectX(qubits[0], lane) }
	bs := &batchDriver{b}
	bs.build()
	for loc := 0; loc < locations; loc++ {
		for q := 0; q < n; q++ {
			if b.XError(q, loc) != want[loc].fx[q] || b.ZError(q, loc) != want[loc].fz[q] {
				t.Fatalf("trigger at location %d: qubit %d mismatch", loc, q)
			}
		}
	}
}

type batchDriver struct{ b *BatchSim }

func (d *batchDriver) build() {
	d.b.PrepZ(0)
	d.b.PrepZ(1)
	d.b.PrepZ(2)
	d.b.H(0)
	d.b.CNOT(0, 1)
	d.b.CNOT(1, 2)
	d.b.MeasZ(2)
}

// TestAggregateSamplerRates is a statistical check that the fast sampler
// hits its Bernoulli rates (the lockstep tests prove distributional
// correctness only for the lockstep implementation).
func TestAggregateSamplerRates(t *testing.T) {
	for _, p := range []float64{1e-3, 0.03, 0.3, 0.9} {
		smp := NewAggregateSampler(5, uint64(p*1e4))
		b := NewBatch(1, 512, noise.Params{}, smp)
		act := b.Active()
		out := b.Active()
		hits, total := 0, 0
		for round := 0; round < 400; round++ {
			smp.Bernoulli(p, act, out)
			hits += out.Weight()
			total += 512
		}
		got := float64(hits) / float64(total)
		if got < p*0.85-1e-3 || got > p*1.15+1e-3 {
			t.Fatalf("p=%v: aggregate rate %v", p, got)
		}
	}
}

// TestAggregateCoinIsFair spot-checks the masked coin.
func TestAggregateCoinIsFair(t *testing.T) {
	smp := NewAggregateSampler(6, 6)
	b := NewBatch(1, 256, noise.Params{}, smp)
	act := b.Active()
	out := b.Active()
	hits, total := 0, 0
	for round := 0; round < 200; round++ {
		smp.Coin(act, out)
		hits += out.Weight()
		total += 256
	}
	got := float64(hits) / float64(total)
	if got < 0.47 || got > 0.53 {
		t.Fatalf("coin rate %v", got)
	}
}

// TestBatchResetMatchesNewBatch: a simulator dirtied by a leaky random
// circuit — frames, leakage, a pushed active mask, an armed trigger,
// counters — and then Reset onto a sampler behaves as NewBatch on an
// equal one: a second circuit gives the same measurements, frames,
// leakage and counts, under either sampler kind and under the nil
// sampler's default.
func TestBatchResetMatchesNewBatch(t *testing.T) {
	const n, w = 6, 100
	rng := rand.New(rand.NewPCG(41, 5))
	samplers := map[string]func() Sampler{
		"aggregate": func() Sampler { return NewAggregateSampler(17, 3) },
		"lockstep":  func() Sampler { return NewLockstepSampler(17, w) },
		"nil":       func() Sampler { return nil },
	}
	for _, p := range noiseSettings() {
		for name, mk := range samplers {
			used := NewBatch(n, w, p, NewAggregateSampler(99, 1))
			used.Run(randomCircuit(rng, n, 80))
			mask := bits.NewVec(w)
			mask.Set(3, true)
			used.PushActive(mask)
			used.ArmTrigger(3, 2)
			used.TriggerFault = func(b *BatchSim, lane int, qubits []int) { b.InjectZ(qubits[0], lane) }
			used.Run(randomCircuit(rng, n, 20))
			used.Reset(mk())
			fresh := NewBatch(n, w, p, mk())

			c := randomCircuit(rng, n, 120)
			got, want := used.Run(c), fresh.Run(c)
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Fatalf("%+v, %s: measurement %d of a reset simulator differs from a new one", p, name, i)
				}
			}
			for q := 0; q < n; q++ {
				if !used.PlaneX(q).Equal(fresh.PlaneX(q)) || !used.PlaneZ(q).Equal(fresh.PlaneZ(q)) ||
					!used.PlanesLeak(n)[q].Equal(fresh.PlanesLeak(n)[q]) {
					t.Fatalf("%+v, %s: qubit %d's planes differ after Reset", p, name, q)
				}
			}
			if used.FaultCount != fresh.FaultCount || used.LocationCount != fresh.LocationCount ||
				!used.Active().Equal(fresh.Active()) || used.LaneLocationCount(3) != 0 {
				t.Fatalf("%+v, %s: counts or mask differ after Reset (faults %d vs %d, locations %d vs %d)",
					p, name, used.FaultCount, fresh.FaultCount, used.LocationCount, fresh.LocationCount)
			}
		}
	}
}
