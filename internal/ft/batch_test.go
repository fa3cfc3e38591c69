package ft

// The scalar-vs-batch equivalence suite (the headline test of the batch
// engine): every gadget driver and experiment, run from paired PCG
// streams — scalar shot i on rand.New(rand.NewPCG(seed, i)), batch lane i
// on the same stream via the lockstep sampler — must produce identical
// failure outcomes shot for shot, across methods, syndrome policies and
// noise settings.

import (
	"math"
	"math/rand/v2"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
)

// equivConfigs is the policy grid the suite sweeps.
func equivConfigs() []Config {
	base := DefaultConfig()
	once := base
	once.Policy = PolicyOnce
	until := base
	until.Policy = PolicyUntilAgree
	discard := base
	discard.DiscardSteaneAncilla = true
	noIdle := base
	noIdle.ChargeIdle = false
	return []Config{base, once, until, discard, noIdle}
}

// equivNoise is the noise grid: loud enough that retries, repeats and
// corrections all actually fire within a few dozen lanes.
func equivNoise() []noise.Params {
	leaky := noise.Uniform(1e-2)
	leaky.Leak = 1e-2
	return []noise.Params{
		noise.Uniform(3e-3),
		noise.Uniform(3e-2),
		noise.StorageOnly(2e-2),
		leaky,
	}
}

func TestBatchMemoryEquivalence(t *testing.T) {
	const lanes = 96
	const rounds = 2
	data, _, _, _, _ := oneBlockLayout()
	storageP := noise.StorageOnly(5e-3)
	for mi, method := range []ECMethod{MethodSteane, MethodShor, MethodNaive} {
		for ci, cfg := range equivConfigs() {
			for ni, gadgetP := range equivNoise() {
				seed := uint64(100*mi + 10*ci + ni)

				b := frame.NewBatch(oneBlockWires, lanes, storageP, frame.NewLockstepSampler(seed, lanes))
				for r := 0; r < rounds; r++ {
					b.P = storageP
					for _, q := range data {
						b.Storage(q)
					}
					b.P = gadgetP
					RunECBatch(b, method, cfg)
				}
				bx, bz := IdealDecodeBatch(b, data)

				for lane := 0; lane < lanes; lane++ {
					s := frame.New(oneBlockWires, storageP, rand.New(rand.NewPCG(seed, uint64(lane))))
					for r := 0; r < rounds; r++ {
						s.P = storageP
						for _, q := range data {
							s.Storage(q)
						}
						s.P = gadgetP
						RunEC(s, method, cfg)
					}
					x, z := IdealDecode(s, data)
					if bx.Get(lane) != x || bz.Get(lane) != z {
						t.Fatalf("%v cfg=%d noise=%d lane %d: batch (x=%v z=%v) scalar (x=%v z=%v)",
							method, ci, ni, lane, bx.Get(lane), bz.Get(lane), x, z)
					}
				}
			}
		}
	}
}

func TestBatchECFailureEquivalence(t *testing.T) {
	const lanes = 96
	data, _, _, _, _ := oneBlockLayout()
	for mi, method := range []ECMethod{MethodSteane, MethodShor, MethodNaive} {
		for ni, p := range equivNoise() {
			seed := uint64(500 + 10*mi + ni)
			b := frame.NewBatch(oneBlockWires, lanes, p, frame.NewLockstepSampler(seed, lanes))
			RunECBatch(b, method, DefaultConfig())
			bx, bz := IdealDecodeBatch(b, data)
			for lane := 0; lane < lanes; lane++ {
				s := frame.New(oneBlockWires, p, rand.New(rand.NewPCG(seed, uint64(lane))))
				RunEC(s, method, DefaultConfig())
				x, z := IdealDecode(s, data)
				if bx.Get(lane) != x || bz.Get(lane) != z {
					t.Fatalf("%v noise=%d lane %d: batch (x=%v z=%v) scalar (x=%v z=%v)",
						method, ni, lane, bx.Get(lane), bz.Get(lane), x, z)
				}
			}
		}
	}
}

func TestBatchExRecEquivalence(t *testing.T) {
	const lanes = 96
	const wires = 14 + 19
	dataA := []int{0, 1, 2, 3, 4, 5, 6}
	dataB := []int{7, 8, 9, 10, 11, 12, 13}
	anc := []int{14, 15, 16, 17, 18, 19, 20}
	chk := []int{21, 22, 23, 24, 25, 26, 27}
	cat := []int{28, 29, 30, 31}
	ver := 32
	cfg := DefaultConfig()
	for mi, method := range []ECMethod{MethodSteane, MethodShor} {
		p := noise.Uniform(1e-2)
		seed := uint64(900 + mi)

		b := frame.NewBatch(wires, lanes, p, frame.NewLockstepSampler(seed, lanes))
		LogicalCNOTBatch(b, dataA, dataB)
		for _, blk := range [][]int{dataA, dataB} {
			if method == MethodSteane {
				SteaneECBatch(b, blk, anc, chk, cfg)
			} else {
				ShorECBatch(b, blk, cat, ver, cfg)
			}
		}
		bxa, bza := IdealDecodeBatch(b, dataA)
		bxb, bzb := IdealDecodeBatch(b, dataB)

		for lane := 0; lane < lanes; lane++ {
			s := frame.New(wires, p, rand.New(rand.NewPCG(seed, uint64(lane))))
			LogicalCNOT(s, dataA, dataB)
			for _, blk := range [][]int{dataA, dataB} {
				if method == MethodSteane {
					SteaneEC(s, blk, anc, chk, cfg)
				} else {
					ShorEC(s, blk, cat, ver, cfg)
				}
			}
			xa, za := IdealDecode(s, dataA)
			xb, zb := IdealDecode(s, dataB)
			if bxa.Get(lane) != xa || bza.Get(lane) != za || bxb.Get(lane) != xb || bzb.Get(lane) != zb {
				t.Fatalf("%v lane %d: exRec outcome mismatch", method, lane)
			}
		}
	}
}

// TestBatchCatAttemptsEquivalence is E04's row: PrepVerifiedCatBatch
// run on one lane at a time counts each lane's attempts exactly as the
// scalar PrepVerifiedCat does, and a full-width run returns their sum.
func TestBatchCatAttemptsEquivalence(t *testing.T) {
	const lanes = 96
	_, _, _, cat, ver := oneBlockLayout()
	cfg := DefaultConfig()
	for ni, p := range append(equivNoise(), noise.Uniform(0.1)) {
		seed := uint64(700 + ni)
		full := frame.NewBatch(oneBlockWires, lanes, p, frame.NewLockstepSampler(seed, lanes))
		total := PrepVerifiedCatBatch(full, cat, ver, cfg)
		one := frame.NewBatch(oneBlockWires, lanes, p, frame.NewLockstepSampler(seed, lanes))
		sum := 0
		for lane := 0; lane < lanes; lane++ {
			mask := bits.NewVec(lanes)
			mask.Set(lane, true)
			one.PushActive(mask)
			got := PrepVerifiedCatBatch(one, cat, ver, cfg)
			one.PopActive()
			s := frame.New(oneBlockWires, p, rand.New(rand.NewPCG(seed, uint64(lane))))
			want := PrepVerifiedCat(s, cat, ver, cfg)
			if got != want {
				t.Fatalf("noise=%d lane %d: batch %d attempts, scalar %d", ni, lane, got, want)
			}
			sum += want
		}
		if total != sum {
			t.Fatalf("noise=%d: full-width batch %d attempts, scalar lanes sum to %d", ni, total, sum)
		}
	}
}

// TestBatchZeroEscapeEquivalence is E05's row: the lanes whose verified
// |0̄⟩ keeps X weight ≥ 2 are exactly the scalar shots that do.
func TestBatchZeroEscapeEquivalence(t *testing.T) {
	const lanes = 96
	_, anc, chk, _, _ := oneBlockLayout()
	for ci, cfg := range equivConfigs() {
		for ni, p := range append(equivNoise(), noise.Uniform(0.1)) {
			seed := uint64(800 + 10*ci + ni)
			b := frame.NewBatch(oneBlockWires, lanes, p, frame.NewLockstepSampler(seed, lanes))
			esc := zeroPrepEscapeLanes(b, cfg)
			for lane := 0; lane < lanes; lane++ {
				s := frame.New(oneBlockWires, p, rand.New(rand.NewPCG(seed, uint64(lane))))
				PrepVerifiedZero(s, anc, chk, cfg)
				x, _ := s.FrameOn(anc)
				if want := x.Weight() >= 2; esc.Get(lane) != want {
					t.Fatalf("cfg=%d noise=%d lane %d: batch escape %v, scalar %v", ci, ni, lane, esc.Get(lane), want)
				}
			}
		}
	}
}

// leakageShot is the scalar E14 trial, the reference leakageTrial is
// held to: Fig. 15 detection and replacement of each data qubit, then
// Steane recovery, every round; a block still leaked at readout fails.
func leakageShot(s *frame.Sim, cfg Config, rounds int, detect bool) (xfail, zfail bool) {
	data, anc, chk, _, ver := oneBlockLayout()
	for r := 0; r < rounds; r++ {
		if detect {
			for _, d := range data {
				if LeakDetect(s, d, ver) {
					s.ReplaceLeaked(d)
				}
			}
		}
		SteaneEC(s, data, anc, chk, cfg)
	}
	for _, d := range data {
		if s.Leaked(d) {
			return true, true
		}
	}
	return IdealDecode(s, data)
}

// TestBatchLeakageEquivalence is E14's row: with and without detection,
// every lane of the batch trial fails exactly when its scalar shot does,
// through leaked-measurement coins, false alarms and replacements.
func TestBatchLeakageEquivalence(t *testing.T) {
	const lanes = 96
	const rounds = 3
	cfg := DefaultConfig()
	for ni, leak := range []float64{1e-2, 5e-2} {
		p := noise.Uniform(1e-2)
		p.Leak = leak
		for _, detect := range []bool{false, true} {
			seed := uint64(900 + 10*ni)
			if detect {
				seed++
			}
			b := frame.NewBatch(oneBlockWires, lanes, p, frame.NewLockstepSampler(seed, lanes))
			bx, bz := leakageTrial(b, cfg, rounds, detect)
			for lane := 0; lane < lanes; lane++ {
				s := frame.New(oneBlockWires, p, rand.New(rand.NewPCG(seed, uint64(lane))))
				x, z := leakageShot(s, cfg, rounds, detect)
				if bx.Get(lane) != x || bz.Get(lane) != z {
					t.Fatalf("leak=%v detect=%v lane %d: batch (x=%v z=%v) scalar (x=%v z=%v)",
						leak, detect, lane, bx.Get(lane), bz.Get(lane), x, z)
				}
			}
		}
	}
}

// TestBatchSteaneECSingleFaultExhaustive ports the deterministic
// single-fault machinery to the batch engine: every location of the
// Steane EC gadget is triggered on its own lane (all 15 Pauli fault
// patterns), and each location's outcome must (a) agree with the scalar
// Trigger run for that location and (b) never be a logical error after a
// clean follow-up recovery.
func TestBatchSteaneECSingleFaultExhaustive(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChargeIdle = false
	data, _, _, _, _ := oneBlockLayout()
	total := countLocations(func(s *frame.Sim) { RunEC(s, MethodSteane, cfg) })
	if total < 50 {
		t.Fatalf("suspiciously few locations: %d", total)
	}
	for fault := 1; fault < 16; fault++ {
		// Batch: lane L takes the fault at location L.
		b := frame.NewBatch(oneBlockWires, total, quiet(), frame.NewAggregateSampler(41, uint64(fault)))
		applied := make([]bool, total)
		for lane := 0; lane < total; lane++ {
			b.ArmTrigger(lane, lane)
		}
		b.TriggerFault = func(b *frame.BatchSim, lane int, qubits []int) {
			f := fault
			for _, q := range qubits {
				if f&1 != 0 {
					b.InjectX(q, lane)
				}
				if f&2 != 0 {
					b.InjectZ(q, lane)
				}
				f >>= 2
			}
			applied[lane] = f == 0
		}
		RunECBatch(b, MethodSteane, cfg)
		b.DisarmTriggers()
		RunECBatch(b, MethodSteane, cfg)
		bx, bz := IdealDecodeBatch(b, data)

		for loc := 0; loc < total; loc++ {
			s := frame.New(oneBlockWires, quiet(), rand.New(rand.NewPCG(41, uint64(loc))))
			s.Trigger = loc
			sApplied := false
			s.TriggerFault = func(s *frame.Sim, qubits []int) {
				f := fault
				for _, q := range qubits {
					if f&1 != 0 {
						s.InjectX(q)
					}
					if f&2 != 0 {
						s.InjectZ(q)
					}
					f >>= 2
				}
				sApplied = f == 0
			}
			RunEC(s, MethodSteane, cfg)
			s.Trigger = -1
			RunEC(s, MethodSteane, cfg)
			x, z := IdealDecode(s, data)
			if applied[loc] != sApplied {
				t.Fatalf("fault %d location %d: arity disagreement (batch %v scalar %v)",
					fault, loc, applied[loc], sApplied)
			}
			if bx.Get(loc) != x || bz.Get(loc) != z {
				t.Fatalf("fault %d location %d: batch (x=%v z=%v) scalar (x=%v z=%v)",
					fault, loc, bx.Get(loc), bz.Get(loc), x, z)
			}
			if applied[loc] && (x || z) {
				t.Fatalf("fault %d at location %d/%d caused a logical error", fault, loc, total)
			}
		}
	}
}

// TestBatchAggregateStatisticallyConsistent guards the production
// sampler: the aggregate-sampled experiment rate must agree with a scalar
// Monte Carlo of the same size within a generous binomial tolerance.
func TestBatchAggregateStatisticallyConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	const samples = 6000
	p := noise.Uniform(8e-3)
	cfg := DefaultConfig()
	batch := ECFailureRate(MethodSteane, p, cfg, samples, 11)
	data, _, _, _, _ := oneBlockLayout()
	rng := rand.New(rand.NewPCG(11, 0))
	scalarFails := 0
	for i := 0; i < samples; i++ {
		s := frame.New(oneBlockWires, p, rng)
		RunEC(s, MethodSteane, cfg)
		if x, z := IdealDecode(s, data); x || z {
			scalarFails++
		}
	}
	pb := batch.FailRate()
	ps := float64(scalarFails) / samples
	// Two independent binomial estimates: allow 5 combined standard errors.
	se := math.Sqrt((pb*(1-pb) + ps*(1-ps)) / samples)
	if math.Abs(pb-ps) > 5*se+1e-9 {
		t.Fatalf("aggregate %v vs scalar %v (se %v)", pb, ps, se)
	}
}
