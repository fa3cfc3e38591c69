package ftqc

import (
	"math/rand/v2"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/noise"
)

func TestFacadeSteane(t *testing.T) {
	c := Steane()
	if c.N != 7 || c.K != 1 {
		t.Fatalf("Steane: [[%d,%d]]", c.N, c.K)
	}
	if FiveQubit().N != 5 {
		t.Fatal("FiveQubit wrong")
	}
	if ShorFamily(2).N != 25 {
		t.Fatal("ShorFamily wrong")
	}
}

func TestFacadeSimulators(t *testing.T) {
	tb := NewTableau(3, rand.New(rand.NewPCG(1, 2)))
	tb.H(0)
	tb.CNOT(0, 1)
	sv := NewStateVector(3)
	sv.H(0)
	sv.CNOT(0, 1)
	if p := sv.Prob1(1); p < 0.49 || p > 0.51 {
		t.Fatalf("facade statevec broken: %v", p)
	}
}

func TestFacadeBatchFrameSim(t *testing.T) {
	b := NewBatchFrameSim(2, 128, UniformNoise(0), 1, 2)
	b.InjectX(0, 5)
	b.CNOT(0, 1)
	if !b.XError(1, 5) || b.XError(1, 6) {
		t.Fatal("facade batch sim broken")
	}
}

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

func TestFacadeThreshold(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	est := EstimateThreshold(MethodSteane, noise.Uniform, []float64{1e-3}, DefaultECConfig(), 5000, 5)
	if est.A <= 0 {
		t.Fatalf("estimate %+v", est)
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
	lat := NewToricLattice(4)
	if lat.Qubits() != 32 {
		t.Fatal("lattice wrong")
	}
	r := ToricMemory(3, 0.02, 500, 7)
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
	a, _ := SpacetimeMemory(ToricCode(4), 4, phenom, ToricDecoderUnionFind, DecodeOptions{}, 1000, 11)
	if a != r {
		t.Fatalf("spacetime memory not deterministic: %+v vs %+v", a, r)
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
	stream := func(rounds, window, commit, samples int, seed uint64) (StreamingResult, error) {
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
	if a, _ := stream(16, 0, 0, 1000, 13); a != r {
		t.Fatalf("streaming memory not deterministic: %+v vs %+v", a, r)
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
	if _, err := NewStreamSession(nil, 8, 4, 0.02, 0.02); err == nil {
		t.Fatal("stream session without a code accepted")
	}
}

func TestFacadeDecodeServer(t *testing.T) {
	srv := NewDecodeServer(DecodeServerConfig{Workers: 2})
	sessions := make([]*DecodeSession, 3)
	for i := range sessions {
		var cfg DecodeSessionConfig
		if i%2 == 0 {
			cfg = SurfaceSession(ToricCode(3), 16, 0.02, 0.02)
		} else {
			cfg = SurfaceCircuitSession(ToricCode(3), 16, 0.003)
		}
		s, err := srv.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
		layerX := bits.NewVecs(9, 16)
		layerZ := bits.NewVecs(9, 16)
		for r := 0; r < 8; r++ {
			if err := s.Submit(layerX, layerZ); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.CloseWith(layerX, layerZ); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range sessions {
		res, err := s.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Finished || res.Committed != 8 {
			t.Fatalf("session %d incomplete: %+v", i, res)
		}
		if st := s.Stats(); st.Latency.Count == 0 || st.Rounds != 8 {
			t.Fatalf("session %d stats empty: %+v", i, st)
		}
	}
	srv.Shutdown()
	if _, err := srv.Open(SurfaceSession(ToricCode(3), 8, 0.02, 0.02)); err == nil {
		t.Fatal("Open after Shutdown accepted")
	}
}
