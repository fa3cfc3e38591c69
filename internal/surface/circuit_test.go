package surface_test

// CircuitSource against the ideal code, for every family behind the
// contract: the extraction circuit computes the true check operators,
// a measurement fault is a vertical defect pair, the location count is
// the trigger harness's coordinate system, and the compiled round plan,
// on either executor, is bit-identical to the per-gate loop.

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

// gateLoop is the extraction round written out gate by gate, with the
// CNOT orders read straight from the code's schedule: the reference
// that does not go through the compiled round plan, so the plan's
// compilation keeps an independent check. Qubit layout as on a
// CircuitSource: data, then primal ancillas, then dual ones.
type gateLoop struct {
	code surface.Code
	sim  *frame.BatchSim
	diff *surface.SyndromeDiff
}

func newGateLoop(code surface.Code, P noise.Params, lanes int, smp frame.Sampler) *gateLoop {
	nc := code.Checks()
	return &gateLoop{code: code, sim: frame.NewBatch(code.Qubits()+2*nc, lanes, P, smp), diff: surface.NewSyndromeDiff(nc, lanes)}
}

// round runs idle storage on every data qubit, then per sector the
// ancilla preps, four CNOT steps check by check (idle −1 steps skipped)
// and the ancilla measurements.
func (g *gateLoop) round() {
	nq, nc := g.code.Qubits(), g.code.Checks()
	sch := g.code.ExtractionSchedule()
	for e := 0; e < nq; e++ {
		g.sim.Storage(e)
	}
	// Primal sector: data controls the ancilla; MeasZ reads its X frame.
	for c := 0; c < nc; c++ {
		g.sim.PrepZ(nq + c)
	}
	for step := 0; step < 4; step++ {
		for c := 0; c < nc; c++ {
			if q := sch.Plaq[c][step]; q >= 0 {
				g.sim.CNOT(q, nq+c)
			}
		}
	}
	for c, out := range g.diff.CurX() {
		g.sim.MeasZInto(nq+c, out)
	}
	// Dual sector: the ancilla controls data; MeasX reads its Z frame.
	for c := 0; c < nc; c++ {
		g.sim.PrepX(nq + nc + c)
	}
	for step := 0; step < 4; step++ {
		for c := 0; c < nc; c++ {
			if q := sch.Star[c][step]; q >= 0 {
				g.sim.CNOT(nq+nc+c, q)
			}
		}
	}
	for c, out := range g.diff.CurZ() {
		g.sim.MeasXInto(nq+nc+c, out)
	}
}

func (g *gateLoop) NextLayers(layerX, layerZ []bits.Vec) {
	g.round()
	g.diff.Emit(layerX, layerZ)
}

// NextLayersErased keeps CircuitSource's draw order: replace the leaked
// data qubits, run the round, then read the leak planes.
func (g *gateLoop) NextLayersErased(layerX, layerZ, eraH, lostX, lostZ []bits.Vec) {
	nq, nc := g.code.Qubits(), g.code.Checks()
	lk := g.sim.PlanesLeak(nq + 2*nc)
	for e := 0; e < nq; e++ {
		eraH[e].CopyFrom(lk[e])
		g.sim.ReplaceLeaked(e, eraH[e])
	}
	g.round()
	for e := 0; e < nq; e++ {
		eraH[e].Or(lk[e])
	}
	for c := 0; c < nc; c++ {
		lostX[c].CopyFrom(lk[nq+c])
		lostZ[c].CopyFrom(lk[nq+nc+c])
	}
	g.diff.Emit(layerX, layerZ)
}

// simMismatch names the first difference between two simulators'
// frame and leakage planes, fault counts and location counts, or
// returns "".
func simMismatch(a, b *frame.BatchSim) string {
	n := a.N()
	for i, get := range []func(*frame.BatchSim, int) []bits.Vec{
		(*frame.BatchSim).PlanesX, (*frame.BatchSim).PlanesZ, (*frame.BatchSim).PlanesLeak,
	} {
		pa, pb := get(a, n), get(b, n)
		for q := range pa {
			if !pa[q].Equal(pb[q]) {
				return fmt.Sprintf("%s plane of qubit %d", [3]string{"X frame", "Z frame", "leakage"}[i], q)
			}
		}
	}
	if a.FaultCount != b.FaultCount || a.LocationCount != b.LocationCount {
		return fmt.Sprintf("fault/location counts %d/%d against %d/%d", a.FaultCount, a.LocationCount, b.FaultCount, b.LocationCount)
	}
	return ""
}

// TestFusedRoundBitIdentical pins the source's fused round to the
// per-gate loop for every schedule shape: over identical aggregate-
// sampler streams both must emit identical difference layers every
// round and leave identical frames, fault counts and location counts.
// Covered shapes include a non-word-multiple lane count (tail-word
// handling), distinct per-location probabilities (carry reset between
// blocks) and the p ≥ 1 edge. Which executor the source takes here
// shows only in its speed: the fused walk and the gate path draw the
// same bits (frame.FuzzRunRound), and neither allocates
// (TestWarmNextLayersZeroAllocs).
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
				loop := newGateLoop(code, m.P, m.lanes, frame.NewAggregateSampler(seed, 1))
				nc := code.Checks()
				fX, fZ := bits.NewVecs(nc, m.lanes), bits.NewVecs(nc, m.lanes)
				pX, pZ := bits.NewVecs(nc, m.lanes), bits.NewVecs(nc, m.lanes)
				for r := 0; r < rounds; r++ {
					fused.NextLayers(fX, fZ)
					loop.NextLayers(pX, pZ)
					for c := 0; c < nc; c++ {
						if !fX[c].Equal(pX[c]) || !fZ[c].Equal(pZ[c]) {
							t.Fatalf("round %d: layer mismatch at check %d", r, c)
						}
					}
				}
				if d := simMismatch(fused.Sim(), loop.sim); d != "" {
					t.Fatalf("after %d rounds: %s differ", rounds, d)
				}
				if got, want := fused.Sim().LocationCount, rounds*surface.LocationsPerRound(code); got != want {
					t.Fatalf("LocationCount %d, want %d", got, want)
				}
				if fused.Sim().FaultCount == 0 {
					t.Fatal("degenerate case: no faults injected")
				}
			})
		}
	}
}

// TestFusedRoundFallbacks covers every simulator state the fused walk
// cannot reproduce draw for draw — a lockstep sampler, an armed trigger
// harness (here one that injects an X on the location's last qubit),
// biased noise, leakage, a narrowed active mask — where the round plan
// runs through the gate calls: a source's layers, erasure planes,
// frames, FaultCount and LocationCount must equal the per-gate loop's
// on a twin simulator.
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
	for _, code := range []surface.Code{toric.Cached(4), surface.Planar(3), surface.Rotated(3), toric.HookParallel(4)} {
		nq, nc, locs := code.Qubits(), code.Checks(), surface.LocationsPerRound(code)
		for _, fb := range []struct {
			name  string
			P     noise.Params
			smp   func() frame.Sampler
			setup func(b *frame.BatchSim)
		}{
			{"lockstep", noise.Uniform(0.05), func() frame.Sampler { return frame.NewLockstepSampler(3, lanes) }, nil},
			{"armed-trigger", noise.Uniform(0.05), nil, func(b *frame.BatchSim) {
				b.ArmTrigger(0, 5)
				b.ArmTrigger(3, locs+nq+2)
				b.TriggerFault = func(b *frame.BatchSim, lane int, qubits []int) { b.InjectX(qubits[len(qubits)-1], lane) }
			}},
			{"bias", biased, nil, nil},
			{"leak", leaky, nil, nil},
			{"narrowed-mask", noise.Uniform(0.05), nil, func(b *frame.BatchSim) { b.PushActive(half) }},
		} {
			smp := func() frame.Sampler {
				if fb.smp != nil {
					return fb.smp()
				}
				return frame.NewAggregateSampler(3, 0)
			}
			src := surface.NewCircuitSource(code, fb.P, lanes, smp())
			loop := newGateLoop(code, fb.P, lanes, smp())
			if fb.setup != nil {
				fb.setup(src.Sim())
				fb.setup(loop.sim)
			}
			var planes [2][5][]bits.Vec // [source, loop][X, Z, lostX, lostZ, eraH]
			for i := range planes {
				for k := range planes[i] {
					planes[i][k] = bits.NewVecs(nc, lanes)
				}
				planes[i][4] = bits.NewVecs(nq, lanes)
			}
			for r := 0; r < rounds; r++ {
				for i, feed := range [2]interface {
					NextLayers(layerX, layerZ []bits.Vec)
					NextLayersErased(layerX, layerZ, eraH, lostX, lostZ []bits.Vec)
				}{src, loop} {
					if p := planes[i]; fb.P.Leak > 0 {
						feed.NextLayersErased(p[0], p[1], p[4], p[2], p[3])
					} else {
						feed.NextLayers(p[0], p[1])
					}
				}
				for k := range planes[0] {
					for j := range planes[0][k] {
						if !planes[0][k][j].Equal(planes[1][k][j]) {
							t.Fatalf("%s %s round %d: plane set %d differs at %d", codeLabel(code), fb.name, r, k, j)
						}
					}
				}
			}
			if d := simMismatch(src.Sim(), loop.sim); d != "" {
				t.Fatalf("%s %s: %s differ", codeLabel(code), fb.name, d)
			}
			if got, want := src.Sim().LocationCount, rounds*locs; got != want {
				t.Fatalf("%s %s: counted %d locations, want %d", codeLabel(code), fb.name, got, want)
			}
		}
	}
}

// TestWarmNextLayersZeroAllocs: once the schedule's plan is compiled
// and the sampler's tables are warm, an extraction round allocates
// nothing, for every schedule shape — the fused walk, the gate path a
// biased source's NextLayers and a leaking source's NextLayersErased run
// the plan through (faulted two-qubit gates included), and a round of
// the phenomenological source once its fault-position buffer has grown.
func TestWarmNextLayersZeroAllocs(t *testing.T) {
	const lanes = 128
	biased := noise.Uniform(0.003)
	biased.Bias = 4
	leaky := noise.Uniform(0.003)
	leaky.Leak = 0.003
	for _, code := range circuitCodes() {
		nq, nc := code.Qubits(), code.Checks()
		layerX, layerZ := bits.NewVecs(nc, lanes), bits.NewVecs(nc, lanes)
		eraH, lostX, lostZ := bits.NewVecs(nq, lanes), bits.NewVecs(nc, lanes), bits.NewVecs(nc, lanes)
		circuit := surface.NewCircuitSource(code, noise.Uniform(0.003), lanes, frame.NewAggregateSampler(15, 0))
		phenom := surface.NewLayerSource(code, 0.003, 0.003, lanes, frame.NewAggregateSampler(15, 0))
		bias := surface.NewCircuitSource(code, biased, lanes, frame.NewAggregateSampler(15, 0))
		leak := surface.NewCircuitSource(code, leaky, lanes, frame.NewAggregateSampler(15, 0))
		rounds := map[string]func(){
			"circuit":          func() { circuit.NextLayers(layerX, layerZ) },
			"phenomenological": func() { phenom.NextLayers(layerX, layerZ) },
			"biased circuit":   func() { bias.NextLayers(layerX, layerZ) },
			"leaking circuit":  func() { leak.NextLayersErased(layerX, layerZ, eraH, lostX, lostZ) },
		}
		for name, round := range rounds {
			for r := 0; r < 8; r++ {
				round()
			}
			if n := testing.AllocsPerRun(50, round); n != 0 {
				t.Errorf("%s %s source: a warm round allocates %.1f times", codeLabel(code), name, n)
			}
		}
	}
}
