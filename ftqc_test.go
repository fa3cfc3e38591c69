package ftqc

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestFacadeMemoryExperiment(t *testing.T) {
	res := MemoryExperiment(MethodSteane, NoiseParams{Storage: 1e-3}, UniformNoise(1e-3),
		DefaultECConfig(), 2, 2000, 3)
	if res.Samples != 2000 {
		t.Fatalf("samples %d", res.Samples)
	}
	if res.FailRate() > 0.1 {
		t.Fatalf("implausible failure rate %v", res.FailRate())
	}
}

func TestFacadeFlowAndResources(t *testing.T) {
	f := PaperFlow()
	if f.Threshold() <= 0.04 || f.Threshold() >= 0.05 {
		t.Fatalf("paper threshold %v", f.Threshold())
	}
	conc, block55, err := FactoringMachines(432, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	if conc.DataQubits <= 0 || block55.TotalQubits < 3e5 {
		t.Fatal("machine sizing broken")
	}
}

func TestFacadeToric(t *testing.T) {
	lat := ToricCode(4)
	if lat.Qubits() != 32 {
		t.Fatal("lattice wrong")
	}
	r, err := ToricMemory(3, 0.02, ToricDecoderUnionFind, 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r.Samples != 500 {
		t.Fatal("memory experiment wrong")
	}
}

func TestFacadeAnyon(t *testing.T) {
	enc, reg := NewAnyonComputer(2)
	enc.NOT(reg, 0)
	f := reg.MeasureFlux(0, rand.New(rand.NewPCG(9, 10)))
	if b, err := enc.Bit(f); err != nil || b != 1 {
		t.Fatalf("anyon NOT broken: %v %v", f, err)
	}
}

func TestFacadeSpacetime(t *testing.T) {
	phenom := PhenomenologicalModel(0.02, 0.02, 0, 0)
	r, err := SpacetimeMemory(ToricCode(4), 4, phenom, ToricDecoderUnionFind, DecodeOptions{}, 1000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if r.Samples != 1000 || r.L != 4 || r.T != 4 {
		t.Fatalf("spacetime memory wrong: %+v", r)
	}
	if r.Failures < r.FailX || r.Failures < r.FailZ {
		t.Fatalf("sector accounting broken: %+v", r)
	}
	noisy := PhenomenologicalModel(0.03, 0.03, 0, 0)
	ex, err := SpacetimeMemory(ToricCode(3), 2, noisy, ToricDecoderExact, DecodeOptions{}, 500, 12)
	if err != nil || ex.Samples != 500 {
		t.Fatalf("spacetime exact decode wrong: %+v (err %v)", ex, err)
	}
	if _, err := SpacetimeMemory(PlanarCode(3), 2, noisy, ToricDecoderExact, DecodeOptions{}, 500, 12); err == nil {
		t.Fatal("exact matching on an open code accepted")
	}
	erased := PhenomenologicalModel(0.01, 0.01, 0.08, 0.08)
	aware := DecodeOptions{ErasureAware: true}
	er, err := SpacetimeMemory(ToricCode(4), 3, erased, ToricDecoderUnionFind, aware, 500, 15)
	if err != nil || er.Pe != 0.08 || er.Qe != 0.08 || er.Samples != 500 {
		t.Fatalf("erased spacetime memory wrong: %+v (err %v)", er, err)
	}
	// The erasure channels have an error path like every other model: an
	// empty horizon or sample is refused, not a panic or a NaN rate.
	for _, shape := range [][2]int{{0, 500}, {3, 0}} {
		if _, err := SpacetimeMemory(ToricCode(4), shape[0], erased, ToricDecoderUnionFind, aware, shape[1], 15); err == nil {
			t.Fatalf("erased spacetime memory accepted rounds=%d samples=%d", shape[0], shape[1])
		}
	}
}

func TestFacadeCircuit(t *testing.T) {
	r, err := SpacetimeMemory(ToricCode(3), 3, CircuitModel(UniformNoise(0.004)), ToricDecoderUnionFind, DecodeOptions{}, 400, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Samples != 400 || r.L != 3 || r.T != 3 {
		t.Fatalf("circuit memory result malformed: %+v", r)
	}
	if r.FailRate() > 0.5 {
		t.Fatalf("L=3 circuit memory at eps=0.004 implausibly noisy: %+v", r)
	}
	sr, err := StreamingMemory(ToricCode(3), 8, CircuitModel(UniformNoise(0.004)), 0, 0, DecodeOptions{}, 300, 6)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Samples != 300 || sr.Window != 6 || sr.Commit != 3 {
		t.Fatalf("streaming circuit result malformed: %+v", sr)
	}
	uniform := func(eps float64) NoiseModel { return CircuitModel(UniformNoise(eps)) }
	if _, pts, err := SustainedThreshold(2, 3, []float64{0.004}, uniform, DecodeOptions{}, 200, 7); err != nil || len(pts) != 1 {
		t.Fatalf("threshold sweep returned %d points (err %v)", len(pts), err)
	}
}

func TestFacadeStreaming(t *testing.T) {
	phenom := PhenomenologicalModel(0.02, 0.02, 0, 0)
	stream := func(rounds, window, commit, samples int, seed uint64) (SpacetimeResult, error) {
		return StreamingMemory(ToricCode(4), rounds, phenom, window, commit, DecodeOptions{}, samples, seed)
	}
	r, err := stream(16, 0, 0, 1000, 13)
	if err != nil {
		t.Fatal(err)
	}
	if r.Samples != 1000 || r.L != 4 || r.T != 16 || r.Window != 8 || r.Commit != 4 {
		t.Fatalf("streaming memory wrong: %+v", r)
	}
	if r.Failures < r.FailX || r.Failures < r.FailZ {
		t.Fatalf("sector accounting broken: %+v", r)
	}
	w, err := stream(10, 5, 2, 500, 14)
	if err != nil {
		t.Fatal(err)
	}
	if w.Window != 5 || w.Commit != 2 || w.Samples != 500 {
		t.Fatalf("window knobs ignored: %+v", w)
	}
	if _, err := stream(10, 5, 5, 500, 14); err == nil {
		t.Fatal("commit == window accepted")
	}
}

// TestMemoryRejectsOutOfRangeRates: a phenomenological rate that is NaN
// or outside [0, 1] is a constructor error of both Memory drivers,
// never a hang (a NaN rate never ends the sampler's gap walk) or a
// silent run.
func TestMemoryRejectsOutOfRangeRates(t *testing.T) {
	for _, m := range []NoiseModel{
		PhenomenologicalModel(math.NaN(), 0.01, 0, 0),
		PhenomenologicalModel(0.01, math.NaN(), 0, 0),
		PhenomenologicalModel(0.01, 0.01, math.NaN(), 0),
		PhenomenologicalModel(0.01, 0.01, 0, math.Inf(1)),
	} {
		if err := m.Validate(); err == nil {
			t.Fatalf("Validate accepted %+v", m)
		}
	}
	for _, m := range []NoiseModel{
		PhenomenologicalModel(1.5, 0.01, 0, 0),
		PhenomenologicalModel(-0.1, 0.01, 0, 0),
		PhenomenologicalModel(0.01, 0.01, 2, 0),
	} {
		if r, err := SpacetimeMemory(ToricCode(3), 6, m, ToricDecoderUnionFind, DecodeOptions{}, 64, 1); err == nil {
			t.Errorf("SpacetimeMemory accepted %+v: %+v", m, r)
		}
		if r, err := StreamingMemory(ToricCode(3), 6, m, 0, 0, DecodeOptions{}, 64, 1); err == nil {
			t.Errorf("StreamingMemory accepted %+v: %+v", m, r)
		}
	}
}
