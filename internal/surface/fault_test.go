package surface_test

// Exhaustive single-fault enumeration — the "every fault is decodable"
// property, for every family. One batch run per fault component arms
// every lane's trigger at a different circuit location of one full
// extraction round (via BatchSim.ArmTrigger), covering all
// LocationsPerRound(code) locations in six runs: the 15 nontrivial
// Paulis of a two-qubit location decompose into an X-part ∈ {X⊗I, I⊗X,
// X⊗X} and a Z-part ∈ {Z⊗I, I⊗Z, Z⊗Z}, and the two sectors decode
// independently, so the six components cover them all.
//
// For every location and component the test asserts the full chain:
// decoding each sector's defect set over the diagonal-edge circuit
// volume (union-find, and the exact matcher where the code has one)
// yields a correction whose residual against the injected error is
// syndrome-free and carries no logical error — no single circuit fault
// produces a logical error. On the torus every defect set must also
// have even parity (nothing falls outside the volume). Open codes forgo
// that invariant: a fault next to a boundary legitimately lights a
// single detector and the virtual node absorbs the partner. The
// enumeration must witness the diagonal classes the code has: an
// interior hook pair {(c₁,t), (c₂,t+1)} and, for open codes, a
// boundary-truncated hook (the lone defect of a single-reader qubit).

import (
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/spacetime"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

type faultComponent struct {
	name           string
	x0, z0, x1, z1 bool // components on the location's first and second qubit
}

var faultComponents = []faultComponent{
	{"XI", true, false, false, false},
	{"IX", false, false, true, false},
	{"XX", true, false, true, false},
	{"ZI", false, true, false, false},
	{"IZ", false, false, false, true},
	{"ZZ", false, true, false, true},
}

func TestSingleFaultEnumerationToric(t *testing.T) {
	testSingleFaultEnumeration(t, toric.Cached(4))
	testSingleFaultEnumeration(t, toric.Cached(5))
}

func TestSingleFaultEnumerationPlanar(t *testing.T) {
	testSingleFaultEnumeration(t, surface.Planar(3))
	testSingleFaultEnumeration(t, surface.Planar(4))
}

func TestSingleFaultEnumerationRotated(t *testing.T) {
	testSingleFaultEnumeration(t, surface.Rotated(3))
	testSingleFaultEnumeration(t, surface.Rotated(5))
}

func testSingleFaultEnumeration(t *testing.T, code surface.Code) {
	const rounds = 3
	name, nc := code.CodeName(), code.Checks()
	locs := surface.LocationsPerRound(code)
	wh, wv, wd := spacetime.WeightsCircuit(noise.Uniform(0.004), code.Distance(), rounds)
	vol := spacetime.NewVolume(code, rounds, wh, wv, wd)
	sch := code.ExtractionSchedule()
	diagSeen, truncSeen := 0, 0
	errv := bits.NewVec(code.Qubits())
	kinds := []toric.DecoderKind{toric.DecoderUnionFind}
	if !code.Open() {
		kinds = append(kinds, toric.DecoderExact)
	}
	for _, fc := range faultComponents {
		// All noise channels off: the armed trigger is the only fault.
		src := surface.NewCircuitSource(code, noise.Params{}, locs, frame.NewAggregateSampler(21, 1))
		sim := src.Sim()
		for lane := 0; lane < locs; lane++ {
			sim.ArmTrigger(lane, locs+lane) // round 1's location `lane`
		}
		sim.TriggerFault = func(b *frame.BatchSim, lane int, qubits []int) {
			fc := fc
			if fc.x0 {
				b.InjectX(qubits[0], lane)
			}
			if fc.z0 {
				b.InjectZ(qubits[0], lane)
			}
			if len(qubits) > 1 {
				if fc.x1 {
					b.InjectX(qubits[1], lane)
				}
				if fc.z1 {
					b.InjectZ(qubits[1], lane)
				}
			}
		}
		layersX := bits.NewVecs((rounds+1)*nc, locs)
		layersZ := bits.NewVecs((rounds+1)*nc, locs)
		for r := 0; r < rounds; r++ {
			src.NextLayers(layersX[r*nc:(r+1)*nc], layersZ[r*nc:(r+1)*nc])
		}
		src.CloseLayers(layersX[rounds*nc:], layersZ[rounds*nc:])
		synX := bits.NewVecs(locs, (rounds+1)*nc)
		synZ := bits.NewVecs(locs, (rounds+1)*nc)
		bits.TransposePlanes(synX, layersX)
		bits.TransposePlanes(synZ, layersZ)
		cumX, cumZ := src.ErrorPlanes()
		for lane := 0; lane < locs; lane++ {
			dX := synX[lane].Support()
			dZ := synZ[lane].Support()
			if !code.Open() && (len(dX)%2 != 0 || len(dZ)%2 != 0) {
				t.Fatalf("%s %s location %d: odd defect parity on a closed code (X %v, Z %v)", name, fc.name, lane, dX, dZ)
			}
			diagSeen += countDiagPairs(dX, nc, sch.DiagX) + countDiagPairs(dZ, nc, sch.DiagZ)
			truncSeen += countTruncated(dX, nc, sch.DiagX) + countTruncated(dZ, nc, sch.DiagZ)
			for _, kind := range kinds {
				corr := vol.Decode(dX, kind, false)
				laneResidual(cumX, lane, corr, errv)
				if res := sectorSyndrome(code, false, errv); len(res) != 0 {
					t.Fatalf("%s %s location %d: X residual carries syndrome %v (decoder %d, defects %v)", name, fc.name, lane, res, kind, dX)
				}
				if p1, p2 := code.LogicalParity(false, errv); p1 || p2 {
					t.Fatalf("%s %s location %d: single fault became an X logical (decoder %d, defects %v)", name, fc.name, lane, kind, dX)
				}
				corr = vol.Decode(dZ, kind, true)
				laneResidual(cumZ, lane, corr, errv)
				if res := sectorSyndrome(code, true, errv); len(res) != 0 {
					t.Fatalf("%s %s location %d: Z residual carries syndrome %v (decoder %d, defects %v)", name, fc.name, lane, res, kind, dZ)
				}
				if p1, p2 := code.LogicalParity(true, errv); p1 || p2 {
					t.Fatalf("%s %s location %d: single fault became a Z logical (decoder %d, defects %v)", name, fc.name, lane, kind, dZ)
				}
			}
		}
	}
	if diagSeen == 0 {
		t.Fatalf("%s: no single fault produced an interior diagonal defect pair", name)
	}
	if code.Open() && truncSeen == 0 {
		t.Fatalf("%s: no single fault produced a boundary-truncated diagonal defect", name)
	}
}

// laneResidual fills errv with lane's accumulated error XOR the decoded
// correction.
func laneResidual(planes []bits.Vec, lane int, corr, errv bits.Vec) {
	errv.Clear()
	for e := range planes {
		if planes[e].Get(lane) {
			errv.Flip(e)
		}
	}
	errv.Xor(corr)
}

// countDiagPairs reports whether a two-defect set is an interior
// diagonal pair of the schedule: consecutive layers, matching some data
// qubit's {late, early} readers.
func countDiagPairs(defects []int, nc int, diag [][2]int32) int {
	if len(defects) != 2 {
		return 0
	}
	a, b := defects[0], defects[1]
	if b/nc-a/nc != 1 || a%nc == b%nc {
		return 0
	}
	for _, pr := range diag {
		if pr[1] >= 0 && int(pr[0]) == a%nc && int(pr[1]) == b%nc {
			return 1
		}
	}
	return 0
}

// countTruncated reports whether a lone defect above layer 0 sits at a
// boundary-truncated diagonal's reader — the hook of a single-reader
// data qubit, whose partner defect fell on the boundary.
func countTruncated(defects []int, nc int, diag [][2]int32) int {
	if len(defects) != 1 || defects[0] < nc {
		return 0
	}
	c := defects[0] % nc
	for _, pr := range diag {
		if pr[1] < 0 && int(pr[0]) == c {
			return 1
		}
	}
	return 0
}
