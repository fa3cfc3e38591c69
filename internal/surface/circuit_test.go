package surface_test

// CircuitSource against the ideal code, for every family behind the
// contract: the extraction circuit computes the true check operators,
// a measurement fault is a vertical defect pair, the location count is
// the trigger harness's coordinate system, and the fused round plan is
// bit-identical to the per-gate loop it replaces.

import (
	"fmt"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// circuitCodes is one instance per extraction-schedule shape: the
// torus, its hook-parallel schedule override, and both open families
// (whose boundary checks idle for one or two CNOT steps).
func circuitCodes() []surface.Code {
	return []surface.Code{
		toric.Cached(3),
		toric.Cached(4),
		toric.HookParallel(4),
		surface.Planar(3),
		surface.Planar(4),
		surface.Rotated(3),
		surface.Rotated(5),
	}
}

func codeLabel(c surface.Code) string {
	return fmt.Sprintf("%s/d=%d", c.CodeName(), c.Distance())
}

// anyDefect reports the first check lit in either sector's layer.
func anyDefect(layerX, layerZ []bits.Vec) (int, bool) {
	for c := range layerX {
		if layerX[c].Any() || layerZ[c].Any() {
			return c, true
		}
	}
	return 0, false
}

// laneDefects reads one lane's defect list out of a check-major layer.
func laneDefects(layer []bits.Vec, lane int) []int {
	var d []int
	for c := range layer {
		if layer[c].Get(lane) {
			d = append(d, c)
		}
	}
	return d
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestZeroNoiseExtractionIsSilent: with every fault channel off, the
// extraction circuit reproduces the noiseless syndrome bit for bit —
// all-zero difference layers, every round, closing layer included.
func TestZeroNoiseExtractionIsSilent(t *testing.T) {
	const lanes = 130
	for _, code := range circuitCodes() {
		src := surface.NewCircuitSource(code, noise.Params{}, lanes, frame.NewAggregateSampler(11, 1))
		layerX := bits.NewVecs(code.Checks(), lanes)
		layerZ := bits.NewVecs(code.Checks(), lanes)
		for r := 0; r < 4; r++ {
			src.NextLayers(layerX, layerZ)
			if c, lit := anyDefect(layerX, layerZ); lit {
				t.Fatalf("%s round %d: noiseless circuit emitted a defect at check %d", codeLabel(code), r, c)
			}
		}
		src.CloseLayers(layerX, layerZ)
		if c, lit := anyDefect(layerX, layerZ); lit {
			t.Fatalf("%s closing layer: noiseless circuit emitted a defect at check %d", codeLabel(code), c)
		}
	}
}

// TestInjectedErrorsReadCorrectSyndromes: with faults off, errors
// injected between rounds must appear in the next round's difference
// layers as exactly the ideal syndrome (and only once — the difference
// of two identical observations cancels afterwards). This is the
// "circuit computes the true check operators" equivalence.
func TestInjectedErrorsReadCorrectSyndromes(t *testing.T) {
	const lanes = 64
	for _, code := range circuitCodes() {
		nq, nc := code.Qubits(), code.Checks()
		src := surface.NewCircuitSource(code, noise.Params{}, lanes, frame.NewAggregateSampler(12, 2))
		layerX := bits.NewVecs(nc, lanes)
		layerZ := bits.NewVecs(nc, lanes)
		src.NextLayers(layerX, layerZ) // settle round 0 (all zero)

		// Different error pattern per lane: lane i gets X on qubit i and Z
		// on qubit (i+7) mod nq.
		for lane := 0; lane < lanes; lane++ {
			src.Sim().InjectX(lane%nq, lane)
			src.Sim().InjectZ((lane+7)%nq, lane)
		}
		src.NextLayers(layerX, layerZ)
		errv := bits.NewVec(nq)
		for lane := 0; lane < lanes; lane++ {
			errv.Clear()
			errv.Flip(lane % nq)
			wantX := sectorSyndrome(code, false, errv)
			errv.Clear()
			errv.Flip((lane + 7) % nq)
			wantZ := sectorSyndrome(code, true, errv)
			gotX, gotZ := laneDefects(layerX, lane), laneDefects(layerZ, lane)
			if !equalInts(gotX, wantX) || !equalInts(gotZ, wantZ) {
				t.Fatalf("%s lane %d: syndrome X %v (want %v) Z %v (want %v)", codeLabel(code), lane, gotX, wantX, gotZ, wantZ)
			}
		}
		// The next round re-observes the same syndromes: differences vanish.
		src.NextLayers(layerX, layerZ)
		if c, lit := anyDefect(layerX, layerZ); lit {
			t.Fatalf("%s check %d: stable error produced a second difference defect", codeLabel(code), c)
		}
		// The perfect closing layer agrees with the (unchanged) observation.
		src.CloseLayers(layerX, layerZ)
		if c, lit := anyDefect(layerX, layerZ); lit {
			t.Fatalf("%s check %d: closing layer disagrees with the noiseless observation", codeLabel(code), c)
		}
	}
}

// TestLocationsPerRound pins the ArmTrigger coordinate system: the
// per-lane location counter advances by exactly LocationsPerRound each
// round, independent of the noise parameters, and the torus count is
// the closed form 2L² + 12L².
func TestLocationsPerRound(t *testing.T) {
	for _, l := range []int{2, 3, 4} {
		if got := surface.LocationsPerRound(toric.Cached(l)); got != 14*l*l {
			t.Fatalf("toric L=%d: %d locations per round, want 2L²+12L² = %d", l, got, 14*l*l)
		}
	}
	for _, code := range circuitCodes() {
		locs := surface.LocationsPerRound(code)
		for _, P := range []noise.Params{{}, noise.Uniform(0.01)} {
			src := surface.NewCircuitSource(code, P, 8, frame.NewAggregateSampler(13, 3))
			src.Sim().ArmTrigger(0, -1) // enable per-lane location counting
			layerX := bits.NewVecs(code.Checks(), 8)
			layerZ := bits.NewVecs(code.Checks(), 8)
			for r := 1; r <= 2; r++ {
				src.NextLayers(layerX, layerZ)
				if got := src.Sim().LaneLocationCount(0); got != r*locs {
					t.Fatalf("%s P=%+v: %d locations after %d rounds, want %d", codeLabel(code), P, got, r, r*locs)
				}
			}
		}
	}
}

// TestMeasurementFaultIsVerticalPair: a single measurement flip produces
// the classic vertical defect pair — the same check lit in two
// consecutive difference layers — and nothing else. (The richer fault
// classes are exhausted by the single-fault enumeration in
// fault_test.go.)
func TestMeasurementFaultIsVerticalPair(t *testing.T) {
	for _, code := range circuitCodes() {
		nc := code.Checks()
		src := surface.NewCircuitSource(code, noise.Params{}, 1, frame.NewAggregateSampler(14, 4))
		// Trigger an X flip on the primal check-0 ancilla right at its
		// measurement location in round 1: round offset + storage + primal
		// prep + every primal CNOT + 0.
		loc := surface.LocationsPerRound(code) + code.Qubits() + nc
		for _, ord := range code.ExtractionSchedule().Plaq {
			for _, q := range ord {
				if q >= 0 {
					loc++
				}
			}
		}
		sim := src.Sim()
		sim.ArmTrigger(0, loc)
		sim.TriggerFault = func(b *frame.BatchSim, lane int, qubits []int) {
			b.InjectX(qubits[0], lane)
		}
		layerX := bits.NewVecs(nc, 1)
		layerZ := bits.NewVecs(nc, 1)
		var layers [][]int
		for r := 0; r < 3; r++ {
			src.NextLayers(layerX, layerZ)
			if dz := laneDefects(layerZ, 0); len(dz) != 0 {
				t.Fatalf("%s round %d: measurement fault leaked into the dual sector: %v", codeLabel(code), r, dz)
			}
			layers = append(layers, laneDefects(layerX, 0))
		}
		src.CloseLayers(layerX, layerZ)
		layers = append(layers, laneDefects(layerX, 0))
		want := [][]int{nil, {0}, {0}, nil}
		for r := range layers {
			if !equalInts(layers[r], want[r]) {
				t.Fatalf("%s: vertical pair mismatch: layers %v, want %v", codeLabel(code), layers, want)
			}
		}
	}
}

// TestFusedRoundBitIdentical pins the fused-plan executor to the
// per-gate loop for every schedule shape: two sources over identical
// aggregate-sampler streams — one forced through the loop by an armed
// (never firing) trigger harness, which consumes no randomness — must
// emit identical difference layers every round, finish with identical
// error planes, windings, fault counts and location counts. Covered
// shapes include a non-word-multiple lane count (tail-word handling),
// distinct per-location probabilities (carry reset between blocks) and
// the p ≥ 1 edge.
func TestFusedRoundBitIdentical(t *testing.T) {
	models := []struct {
		name  string
		lanes int
		P     noise.Params
	}{
		{"uniform", 64, noise.Uniform(0.01)},
		{"uniform/lanes=100", 100, noise.Uniform(0.003)},
		{"distinct-p/lanes=37", 37,
			noise.Params{Gate1: 0.002, Gate2: 0.01, Prep: 0.02, Meas: 0.005, Storage: 0.03}},
		{"hot", 64, noise.Uniform(0.2)},
		{"certain-prep", 64,
			noise.Params{Gate2: 0.01, Prep: 1, Meas: 0.01, Storage: 0}},
	}
	codes := append(circuitCodes(), toric.Cached(5), toric.Cached(6))
	for _, code := range codes {
		for _, m := range models {
			t.Run(codeLabel(code)+"/"+m.name, func(t *testing.T) {
				const seed, rounds = 11, 12
				fused := surface.NewCircuitSource(code, m.P, m.lanes, frame.NewAggregateSampler(seed, 1))
				plain := surface.NewCircuitSource(code, m.P, m.lanes, frame.NewAggregateSampler(seed, 1))
				plain.Sim().ArmTrigger(0, -1)
				nc := code.Checks()
				fX, fZ := bits.NewVecs(nc, m.lanes), bits.NewVecs(nc, m.lanes)
				pX, pZ := bits.NewVecs(nc, m.lanes), bits.NewVecs(nc, m.lanes)
				check := func(r int) {
					t.Helper()
					for c := 0; c < nc; c++ {
						if !fX[c].Equal(pX[c]) || !fZ[c].Equal(pZ[c]) {
							t.Fatalf("round %d: layer mismatch at check %d", r, c)
						}
					}
				}
				for r := 0; r < rounds; r++ {
					fused.NextLayers(fX, fZ)
					plain.NextLayers(pX, pZ)
					check(r)
				}
				fused.CloseLayers(fX, fZ)
				plain.CloseLayers(pX, pZ)
				check(rounds)
				ex, ez := fused.ErrorPlanes()
				px, pz := plain.ErrorPlanes()
				for q := range ex {
					if !ex[q].Equal(px[q]) || !ez[q].Equal(pz[q]) {
						t.Fatalf("error plane mismatch at qubit %d", q)
					}
				}
				w1 := bits.NewVecs(4, m.lanes)
				w2 := bits.NewVecs(4, m.lanes)
				fused.Windings(w1[0], w1[1], w1[2], w1[3])
				plain.Windings(w2[0], w2[1], w2[2], w2[3])
				for i := range w1 {
					if !w1[i].Equal(w2[i]) {
						t.Fatalf("winding plane %d mismatch", i)
					}
				}
				fs, ps := fused.Sim(), plain.Sim()
				if fs.FaultCount != ps.FaultCount {
					t.Fatalf("FaultCount: fused=%d plain=%d", fs.FaultCount, ps.FaultCount)
				}
				if fs.LocationCount != ps.LocationCount || fs.LocationCount != rounds*surface.LocationsPerRound(code) {
					t.Fatalf("LocationCount: fused=%d plain=%d, want %d", fs.LocationCount, ps.LocationCount, rounds*surface.LocationsPerRound(code))
				}
				if ps.LaneLocationCount(0) != ps.LocationCount {
					t.Fatal("the reference source did not run the per-gate loop")
				}
				if fs.FaultCount == 0 {
					t.Fatal("degenerate case: no faults injected")
				}
			})
		}
	}
}

// TestFusedRoundFallbacks pins the eligibility gate: every simulator
// state the fused executor cannot reproduce draw for draw — a lockstep
// sampler, an armed trigger harness, leakage, biased noise, a narrowed
// active mask — must decline having executed nothing and consumed no
// randomness, so the source's per-gate loop replays the round. A source
// whose simulator was offered a plan and declined must stay bit-
// identical to a twin that never was.
func TestFusedRoundFallbacks(t *testing.T) {
	const lanes, rounds = 8, 3
	biased := noise.Uniform(0.05)
	biased.Bias = 4
	leaky := noise.Uniform(0.05)
	leaky.Leak = 0.02
	half := bits.NewVec(lanes)
	for lane := 0; lane < lanes/2; lane++ {
		half.Set(lane, true)
	}
	probe := frame.NewRoundPlan()
	probe.Storage([]int32{0})
	for _, code := range []surface.Code{toric.Cached(4), surface.Planar(3), surface.Rotated(3), toric.HookParallel(4)} {
		nq, nc := code.Qubits(), code.Checks()
		for _, fb := range []struct {
			name  string
			P     noise.Params
			smp   func() frame.Sampler
			setup func(b *frame.BatchSim)
		}{
			{"lockstep", noise.Uniform(0.05), func() frame.Sampler { return frame.NewLockstepSampler(3, lanes) }, nil},
			{"armed-trigger", noise.Uniform(0.05), nil, func(b *frame.BatchSim) { b.ArmTrigger(0, 5) }},
			{"bias", biased, nil, nil},
			{"leak", leaky, nil, nil},
			{"narrowed-mask", noise.Uniform(0.05), nil, func(b *frame.BatchSim) { b.PushActive(half) }},
		} {
			build := func() *surface.CircuitSource {
				var smp frame.Sampler = frame.NewAggregateSampler(3, 0)
				if fb.smp != nil {
					smp = fb.smp()
				}
				src := surface.NewCircuitSource(code, fb.P, lanes, smp)
				if fb.setup != nil {
					fb.setup(src.Sim())
				}
				return src
			}
			offered, twin := build(), build()
			meas := bits.NewVecs(1, lanes)
			if offered.Sim().RunRound(probe, meas) {
				t.Fatalf("%s %s: fused path accepted", codeLabel(code), fb.name)
			}
			if s := offered.Sim(); s.LocationCount != 0 || s.FaultCount != 0 {
				t.Fatalf("%s %s: declined round executed %d locations, %d faults", codeLabel(code), fb.name, s.LocationCount, s.FaultCount)
			}
			var layers [2][4][]bits.Vec // [source][X, Z, lostX, lostZ]
			var eras [2][]bits.Vec
			for i := range layers {
				for k := range layers[i] {
					layers[i][k] = bits.NewVecs(nc, lanes)
				}
				eras[i] = bits.NewVecs(nq, lanes)
			}
			for r := 0; r < rounds; r++ {
				for i, src := range [2]*surface.CircuitSource{offered, twin} {
					if fb.P.Leak > 0 {
						src.NextLayersErased(layers[i][0], layers[i][1], eras[i], layers[i][2], layers[i][3])
					} else {
						src.NextLayers(layers[i][0], layers[i][1])
					}
				}
				for k := range layers[0] {
					for c := 0; c < nc; c++ {
						if !layers[0][k][c].Equal(layers[1][k][c]) {
							t.Fatalf("%s %s round %d: declining the plan moved the stream (plane set %d, check %d)", codeLabel(code), fb.name, r, k, c)
						}
					}
				}
			}
			if got, want := offered.Sim().LocationCount, rounds*surface.LocationsPerRound(code); got != want {
				t.Fatalf("%s %s: per-gate fallback counted %d locations, want %d", codeLabel(code), fb.name, got, want)
			}
		}
	}
}

// TestWarmNextLayersZeroAllocs: once the schedule's plan is compiled
// and the sampler's tables are warm, a fused extraction round allocates
// nothing, for every schedule shape — and neither does a round of the
// phenomenological source once its fault-position buffer has grown.
func TestWarmNextLayersZeroAllocs(t *testing.T) {
	const lanes = 128
	for _, code := range circuitCodes() {
		sources := map[string]interface {
			NextLayers(layerX, layerZ []bits.Vec)
		}{
			"circuit":          surface.NewCircuitSource(code, noise.Uniform(0.003), lanes, frame.NewAggregateSampler(15, 0)),
			"phenomenological": surface.NewLayerSource(code, 0.003, 0.003, lanes, frame.NewAggregateSampler(15, 0)),
		}
		layerX := bits.NewVecs(code.Checks(), lanes)
		layerZ := bits.NewVecs(code.Checks(), lanes)
		for name, src := range sources {
			for r := 0; r < 8; r++ {
				src.NextLayers(layerX, layerZ)
			}
			if n := testing.AllocsPerRun(50, func() { src.NextLayers(layerX, layerZ) }); n != 0 {
				t.Errorf("%s %s source: warm NextLayers allocates %.1f times per round", codeLabel(code), name, n)
			}
		}
	}
}
