package ftqc

// One benchmark per reproduced table/figure/equation of Preskill's
// "Fault-Tolerant Quantum Computation" (see EXPERIMENTS.md for the
// paper-vs-measured record). Each benchmark runs a representative slice
// of its experiment per iteration; cmd/ftqc runs the full-resolution
// versions.

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"ftqc/internal/anyon"
	"ftqc/internal/bits"
	"ftqc/internal/code"
	"ftqc/internal/concat"
	"ftqc/internal/decoder"
	"ftqc/internal/frame"
	"ftqc/internal/ft"
	"ftqc/internal/noise"
	"ftqc/internal/pauli"
	"ftqc/internal/resource"
	"ftqc/internal/server"
	"ftqc/internal/spacetime"
	"ftqc/internal/statevec"
	"ftqc/internal/stream"
	"ftqc/internal/surface"
	"ftqc/internal/threshold"
	"ftqc/internal/toric"
)

// BenchmarkE01MemoryFidelity — Eq. (14): encoded memory failure O(ε²).
func BenchmarkE01MemoryFidelity(b *testing.B) {
	cfg := ft.DefaultConfig()
	for i := 0; i < b.N; i++ {
		ft.MemoryExperiment(ft.MethodSteane, noise.StorageOnly(1e-3), noise.Uniform(1e-3), cfg, 3, 200, uint64(i))
	}
}

// BenchmarkE02DoubleErrors — Eqs. (12)-(13): double errors become logical
// operators under decoding.
func BenchmarkE02DoubleErrors(b *testing.B) {
	c := code.Steane()
	dec := code.NewDecoder(c.Code, 1)
	for i := 0; i < b.N; i++ {
		for a := 0; a < 7; a++ {
			for bb := a + 1; bb < 7; bb++ {
				err := pauli.NewIdentity(7)
				err.SetAt(a, pauli.X)
				err.SetAt(bb, pauli.X)
				dec.DecodeError(err)
			}
		}
	}
}

// BenchmarkE03BadGoodAncilla — Figs. 2/6: naive vs fault-tolerant
// recovery failure.
func BenchmarkE03BadGoodAncilla(b *testing.B) {
	cfg := ft.DefaultConfig()
	for i := 0; i < b.N; i++ {
		ft.ECFailureRate(ft.MethodNaive, noise.Uniform(1e-3), cfg, 100, uint64(i))
		ft.ECFailureRate(ft.MethodSteane, noise.Uniform(1e-3), cfg, 100, uint64(i)+1)
	}
}

// BenchmarkE04ShorStateVerify — Fig. 8 cat-state verification.
func BenchmarkE04ShorStateVerify(b *testing.B) {
	cfg := ft.DefaultConfig()
	for i := 0; i < b.N; i++ {
		ft.CatPrepAttempts(noise.Uniform(3e-3), cfg, 256, uint64(i))
	}
}

// BenchmarkE05SteaneStateVerify — §3.3 encoded-|0⟩ verification.
func BenchmarkE05SteaneStateVerify(b *testing.B) {
	cfg := ft.DefaultConfig()
	for i := 0; i < b.N; i++ {
		ft.ZeroPrepEscapes(noise.Uniform(3e-3), cfg, 256, uint64(i))
	}
}

// BenchmarkE06SyndromeRepeat — §3.4 policy comparison.
func BenchmarkE06SyndromeRepeat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, pol := range []ft.SyndromePolicy{ft.PolicyOnce, ft.PolicyRepeatNontrivial} {
			cfg := ft.DefaultConfig()
			cfg.Policy = pol
			ft.ECFailureRate(ft.MethodSteane, noise.Uniform(1e-3), cfg, 100, uint64(i))
		}
	}
}

// BenchmarkE07ExRec — Fig. 9 + §5: the extended-rectangle failure rate.
func BenchmarkE07ExRec(b *testing.B) {
	cfg := ft.DefaultConfig()
	for i := 0; i < b.N; i++ {
		ft.ExRecCNOT(ft.MethodSteane, noise.Uniform(5e-4), cfg, 200, uint64(i))
	}
}

// BenchmarkE08Thresholds — Eqs. (34)-(35): pseudothreshold fits.
func BenchmarkE08Thresholds(b *testing.B) {
	cfg := ft.DefaultConfig()
	for i := 0; i < b.N; i++ {
		threshold.Run(ft.MethodSteane, noise.GateOnly, []float64{4e-4, 8e-4}, cfg, 400, uint64(i))
	}
}

// BenchmarkE09ConcatFlow — Eq. (33): flow-equation level curves.
func BenchmarkE09ConcatFlow(b *testing.B) {
	f := concat.PaperFlow()
	for i := 0; i < b.N; i++ {
		for _, p0 := range []float64{1e-2, 1e-3, 1e-4} {
			f.Levels(p0, 6)
		}
	}
}

// BenchmarkE10BlockScaling — Eq. (36)-(37): block size for T gates.
func BenchmarkE10BlockScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, t := range []float64{1e6, 1e9, 1e12} {
			concat.BlockSizeForComputation(1e-5, 1e-3, t)
		}
	}
}

// BenchmarkE11ShorFamily — Eqs. (30)-(32): non-concatenated optimization.
func BenchmarkE11ShorFamily(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, eps := range []float64{1e-4, 1e-5, 1e-6} {
			t := concat.OptimalT(4, eps)
			concat.BlockErrorProbability(t, 4, eps)
			concat.MinBlockError(4, eps)
		}
	}
}

// BenchmarkE12Resources — §6: machine sizing for factoring-432.
func BenchmarkE12Resources(b *testing.B) {
	w := resource.Factoring(432)
	for i := 0; i < b.N; i++ {
		resource.SizeConcatenated(w, 1e-6, concat.Flow{A: 1e4}, 3.0)
		resource.SizeSteane55(w, 1e-5)
	}
}

// BenchmarkE13Systematic — §6: coherent vs random-walk drift.
func BenchmarkE13Systematic(b *testing.B) {
	rng := rand.New(rand.NewPCG(13, 13))
	for i := 0; i < b.N; i++ {
		noise.CoherentDriftError(1e-3, 400)
		noise.RandomWalkDriftError(1e-3, 400, 20, rng)
	}
}

// BenchmarkE14Leakage — Fig. 15: leakage detection cycles.
func BenchmarkE14Leakage(b *testing.B) {
	cfg := ft.DefaultConfig()
	p := noise.Uniform(1e-3)
	p.Leak = 1e-3
	for i := 0; i < b.N; i++ {
		ft.LeakageExperiment(p, cfg, 2, 100, true, uint64(i))
	}
}

// BenchmarkE15Transversal — Fig. 11: transversal gates on the tableau and
// frame simulators.
func BenchmarkE15Transversal(b *testing.B) {
	rng := rand.New(rand.NewPCG(15, 15))
	dataA := []int{0, 1, 2, 3, 4, 5, 6}
	dataB := []int{7, 8, 9, 10, 11, 12, 13}
	for i := 0; i < b.N; i++ {
		s := frame.New(14, noise.Uniform(1e-3), rng)
		ft.LogicalCNOT(s, dataA, dataB)
		ft.LogicalH(s, dataA)
		ft.LogicalS(s, dataB)
		ft.IdealDecode(s, dataA)
	}
}

// BenchmarkE16Toffoli — Figs. 12-13: Shor's measurement-based Toffoli.
func BenchmarkE16Toffoli(b *testing.B) {
	rng := rand.New(rand.NewPCG(16, 16))
	for i := 0; i < b.N; i++ {
		ft.ToffoliGadgetFidelity(rng, [3]float64{0.3, 1.1, 2.2})
	}
}

// BenchmarkE17ToricMemory — §7.1: failure vs distance.
func BenchmarkE17ToricMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		toric.MemoryExperiment(5, 0.03, toric.DecoderExact, 50, uint64(i))
	}
}

// BenchmarkToricDecode — the scalable decoder subsystem (union-find,
// polynomial MWPM, per-chunk lane loop) at the near-threshold operating
// point p = 0.08, across code distances. Each iteration runs one
// 256-shot batch of the passive-memory experiment end to end: sampling,
// bit-plane syndrome extraction, transpose, per-lane decode, homology
// test. The exact matcher runs at the small sizes; L = 32 is union-find
// territory.
func BenchmarkToricDecode(b *testing.B) {
	for _, cfg := range toricDecodeConfigs() {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				toric.MemoryExperiment(cfg.l, 0.08, cfg.kind, 256, 7)
			}
		})
	}
}

type toricDecodeConfig struct {
	name string
	l    int
	kind toric.DecoderKind
}

func toricDecodeConfigs() []toricDecodeConfig {
	var out []toricDecodeConfig
	for _, l := range []int{4, 8, 16, 32} {
		out = append(out, toricDecodeConfig{fmt.Sprintf("L=%d", l), l, toric.DecoderUnionFind})
		if l <= 16 {
			out = append(out, toricDecodeConfig{fmt.Sprintf("L=%d/exact", l), l, toric.DecoderExact})
		}
	}
	return out
}

// BenchmarkSpacetimeDecode — the space-time subsystem at the sustained
// near-threshold operating point p = q = 0.025 with T = L rounds. Each
// iteration runs one 64-shot batch end to end — T rounds of error and
// measurement sampling in both sectors, difference-layer extraction,
// transpose, weighted per-lane 3D decode, homology test.
func BenchmarkSpacetimeDecode(b *testing.B) {
	for _, cfg := range spacetimeDecodeConfigs() {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				stream.VolumeMemory(toric.Cached(cfg.l), cfg.l, spacetime.Phenomenological(0.025, 0.025, 0, 0), cfg.kind, spacetime.DecodeOptions{}, 64, 7)
			}
		})
	}
}

func spacetimeDecodeConfigs() []toricDecodeConfig {
	var out []toricDecodeConfig
	for _, l := range []int{4, 8, 16} {
		out = append(out, toricDecodeConfig{fmt.Sprintf("L=%d", l), l, toric.DecoderUnionFind})
	}
	out = append(out, toricDecodeConfig{"L=4/exact", 4, toric.DecoderExact})
	return out
}

// BenchmarkCircuitExtract — circuit-level syndrome extraction end to
// end at the near-threshold operating point ε = 0.006 with T = L
// rounds. Each iteration runs one 64-shot batch: the full extraction
// circuit per round on the batch frame engine (prep, scheduled CNOTs,
// measurement, idle — faults at every location), difference layers,
// transpose, weighted per-lane decode over the diagonal-edge volume,
// homology test, both sectors.
func BenchmarkCircuitExtract(b *testing.B) {
	for _, cfg := range circuitExtractConfigs() {
		b.Run(cfg.name, func(b *testing.B) {
			P := noise.Uniform(0.006)
			for i := 0; i < b.N; i++ {
				stream.VolumeMemory(toric.Cached(cfg.l), cfg.l, spacetime.Circuit(P), cfg.kind, spacetime.DecodeOptions{}, 64, 7)
			}
		})
	}
}

func circuitExtractConfigs() []toricDecodeConfig {
	var out []toricDecodeConfig
	for _, l := range []int{4, 8, 16} {
		out = append(out, toricDecodeConfig{fmt.Sprintf("L=%d", l), l, toric.DecoderUnionFind})
	}
	out = append(out, toricDecodeConfig{"L=4/exact", 4, toric.DecoderExact})
	return out
}

// circuitOptsArm is one arm of the circuit-level options ablation:
// erasure-aware vs erasure-blind leakage, joint two-sector correlated
// repricing, and the CNOT-schedule comparison — each a single L=8
// operating point through stream.VolumeMemory.
type circuitOptsArm struct {
	name string
	P    noise.Params
	code surface.Code
	opts spacetime.DecodeOptions
}

func circuitOptsArms() []circuitOptsArm {
	const l = 8
	leaky := noise.Uniform(0.003)
	leaky.Leak = 0.01
	plain := noise.Uniform(0.006)
	return []circuitOptsArm{
		{"erasure-aware/L=8", leaky, toric.Cached(l), spacetime.DecodeOptions{ErasureAware: true}},
		{"erasure-blind/L=8", leaky, toric.Cached(l), spacetime.DecodeOptions{}},
		{"correlated/L=8", plain, toric.Cached(l), spacetime.DecodeOptions{Correlated: true}},
		{"schedule-default/L=8", plain, toric.Cached(l), spacetime.DecodeOptions{}},
		{"schedule-hookpar/L=8", plain, toric.HookParallel(l), spacetime.DecodeOptions{}},
	}
}

// BenchmarkCircuitOpts — the erasure/correlated/schedule arms of the
// circuit-level options pipeline, whole-volume decoded. The aware/blind
// pair prices identical leaky extractions with and without the erasure
// side information; the correlated arm serializes the dual decode after
// the primal to reprice shared-qubit Y components; the schedule pair
// runs the default bent-hook extraction against the parallel-last
// variant on the same noise.
func BenchmarkCircuitOpts(b *testing.B) {
	for _, arm := range circuitOptsArms() {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := stream.VolumeMemory(arm.code, 8, spacetime.Circuit(arm.P), toric.DecoderUnionFind, arm.opts, 64, 7); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamDecode — the streaming sliding-window pipeline at the
// sustained operating point p = q = 0.025 with T = 4L rounds through
// W = 2L windows (commit L). Each iteration streams one 64-shot batch
// end to end: round-by-round sampling, window slides through the
// long-lived decode services, closing decode, homology test. The
// circuit/ sub-series streams the full extraction circuit through the
// diagonal-edge windows at a sustained circuit-level operating point,
// and the quiet/ sub-series measures the same L=16 window well below
// threshold, where decodes are nearly empty and ring bookkeeping
// carries the load instead of raw decode throughput.
func BenchmarkStreamDecode(b *testing.B) {
	const pq = 0.025
	circuit := spacetime.Circuit(noise.Uniform(0.003))
	for _, l := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("L=%d", l), func(b *testing.B) {
			streamBench(b, toric.Cached(l), spacetime.Phenomenological(pq, pq, 0, 0), 4*l)
		})
	}
	for _, l := range []int{8, 16} {
		b.Run(fmt.Sprintf("circuit/L=%d", l), func(b *testing.B) { streamBench(b, toric.Cached(l), circuit, 4*l) })
	}
	for _, d := range []int{5, 9} {
		b.Run(fmt.Sprintf("rotated/d=%d", d), func(b *testing.B) { streamBench(b, surface.Rotated(d), circuit, 4*d) })
	}
	for _, d := range []int{5, 9} {
		b.Run(fmt.Sprintf("planar/d=%d", d), func(b *testing.B) { streamBench(b, surface.Planar(d), circuit, 4*d) })
	}
	for _, p := range []float64{0.008, 0.002, 0.0005} {
		b.Run(fmt.Sprintf("quiet/L=16/p=%g", p), func(b *testing.B) {
			streamBench(b, toric.Cached(16), spacetime.Phenomenological(p, p, 0, 0), 64)
		})
	}
}

// streamBench streams one 64-shot batch of `rounds` rounds of the model
// per iteration through the default window of the code, with the
// weights stream.Memory derives.
func streamBench(b *testing.B, code surface.Code, m spacetime.Model, rounds int) {
	d := code.Distance()
	w, c := stream.DefaultWindow(d)
	horizon := rounds
	if m.CircuitLevel() {
		horizon = w
	}
	wh, wv, wd := m.Weights(d, horizon)
	win, err := stream.NewWindow(code, w, c, wh, wv, wd)
	if err != nil {
		b.Fatal(err)
	}
	s := stream.NewSessionOn(nil, win)
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BatchMemoryFrom(m.Source(code, 64, frame.NewAggregateSampler(7, uint64(i))), rounds, spacetime.DecodeOptions{})
	}
}

// BenchmarkLayerSourceRound — one phenomenological round of toric L=16
// × 128 lanes (the `mc-quiet` chunk shape) far below, below and at the
// threshold rate: 196,608 trials per round whose cost should follow the
// ≈ 98, ≈ 2,000 and ≈ 5,900 faults among them, not the 1,536 planes.
func BenchmarkLayerSourceRound(b *testing.B) {
	const l, lanes = 16, 128
	code := toric.Cached(l)
	for _, p := range []float64{0.0005, 0.01, 0.03} {
		b.Run(fmt.Sprintf("p=%g", p), func(b *testing.B) {
			src := surface.NewLayerSource(code, p, p, lanes, frame.NewAggregateSampler(7, 1))
			layerX, layerZ := bits.NewVecs(code.Checks(), lanes), bits.NewVecs(code.Checks(), lanes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.NextLayers(layerX, layerZ)
			}
		})
	}
}

// BenchmarkDefectLists — the list-building step of one sector slide on
// the benchmark's toric L=16 window (32 layers × 256 checks × 128
// lanes) at the two traced densities: 24 defects per lane-window
// (`mc-quiet`) and 423 (`mc-circuit`). Each iteration makes the calls
// stream.Decoder makes per sector: the carry pivoted and joined to the
// base layer, then layers 1…W−1 scattered into the lane lists straight
// from the ring's words.
func BenchmarkDefectLists(b *testing.B) {
	const w, nc, lanes = 32, 256, 128
	for _, cfg := range []struct {
		name    string
		defects float64
	}{{"quiet", 24.4779}, {"dense", 423.395}} {
		b.Run(cfg.name, func(b *testing.B) {
			rng := rand.New(rand.NewPCG(7, 2))
			ring, ringW := bits.NewSlab(w*nc, lanes)
			carry, base := bits.NewVecs(lanes, nc), bits.NewVecs(nc, lanes)
			for _, plane := range ring {
				for lane := 0; lane < lanes; lane++ {
					if rng.Float64() < cfg.defects/(w*nc) {
						plane.Flip(lane)
					}
				}
			}
			lists := make([][]int, lanes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for lane := range lists {
					lists[lane] = lists[lane][:0]
				}
				bits.TransposePlanes(base, carry)
				for c := range base {
					base[c].Xor(ring[c])
				}
				bits.AppendPlaneSupports(lists, base, 0)
				bits.AppendSlabSupports(lists, ringW[nc*ring[0].Words():], ring[0].Words(), nc)
			}
		})
	}
}

// BenchmarkUnionFindDensity — the union-find kernel alone on the
// `mc-quiet` window (toric L=16, W=32, unit weights, 8,193 detectors)
// across the defect densities between that workload's 0.3 % and the
// circuit-level ones' ≥ 4.5 %. Each iteration decodes 128 seeded lane
// lists — ascending syndromes of independent edge faults, as a slide
// hands them to the pool — on one instance; the density rule of
// decoder.AppendCorrection was set where the isolated-pair path stops
// paying on this sweep.
func BenchmarkUnionFindDensity(b *testing.B) {
	win, err := stream.NewWindow(toric.Cached(16), 32, 16, 1, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	g := win.Graph()
	for _, density := range []float64{0.001, 0.003, 0.01, 0.03, 0.05} {
		b.Run(fmt.Sprintf("%g%%", 100*density), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(26, uint64(1e6*density)))
			rate := density * float64(g.Nodes()) / float64(2*g.Edges())
			lists := make([][]int, 128)
			lit := make([]bool, g.Nodes())
			for i := range lists {
				clear(lit)
				for e := 0; e < g.Edges(); e++ {
					if rng.Float64() < rate {
						u, v := g.Ends(e)
						lit[u], lit[v] = !lit[u], !lit[v]
					}
				}
				for v, on := range lit {
					if on && !g.IsBoundary(v) {
						lists[i] = append(lists[i], v)
					}
				}
			}
			uf := decoder.NewUnionFind(g)
			var corr []int32
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, defects := range lists {
					corr = uf.AppendCorrection(corr[:0], defects, nil)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(lists)), "ns/decode")
		})
	}
}

// serverFleetRun drives one fleet of concurrent circuit-level sessions
// through the decode server and returns the wall time.
func serverFleetRun(sessions, l, lanes, rounds int, eps float64) (time.Duration, error) {
	P := noise.Uniform(eps)
	cfg := server.CircuitLevelCode(toric.Cached(l), lanes, P)
	srv := server.New(server.Config{})
	defer srv.Shutdown()
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := srv.Open(cfg)
			if err != nil {
				errs[i] = err
				return
			}
			src := surface.NewCircuitSource(toric.Cached(l), P, lanes, frame.NewAggregateSampler(9100+uint64(i), 5))
			nc := l * l
			layerX := bits.NewVecs(nc, lanes)
			layerZ := bits.NewVecs(nc, lanes)
			for r := 0; r < rounds; r++ {
				src.NextLayers(layerX, layerZ)
				if errs[i] = s.Submit(layerX, layerZ); errs[i] != nil {
					return
				}
			}
			src.CloseLayers(layerX, layerZ)
			if errs[i] = s.CloseWith(layerX, layerZ); errs[i] != nil {
				return
			}
			_, errs[i] = s.Wait()
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return wall, err
		}
	}
	return wall, nil
}

// BenchmarkServerThroughput — the multi-tenant decode server under a
// sustained fleet: 8 concurrent L=8 circuit-level sessions, 64 lanes
// each, streaming T=32 rounds through shared workers. Each iteration
// runs one full fleet (open, stream, drain); the reported custom metric
// is aggregate decoded rounds per second.
func BenchmarkServerThroughput(b *testing.B) {
	const sessions, l, lanes, rounds = 8, 8, 64, 32
	var total time.Duration
	for i := 0; i < b.N; i++ {
		wall, err := serverFleetRun(sessions, l, lanes, rounds, 0.003)
		if err != nil {
			b.Fatal(err)
		}
		total += wall
	}
	if total > 0 {
		b.ReportMetric(float64(sessions*rounds*b.N)/total.Seconds(), "rounds/s")
	}
}

// BenchmarkE18Thermal — §7.1: e^{-Δ/T} suppression.
func BenchmarkE18Thermal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		toric.ThermalMemory(5, 0.5, 3.0, toric.DecoderExact, 50, uint64(i))
	}
}

// BenchmarkE19Interferometer — Figs. 18/22: repeated measurement.
func BenchmarkE19Interferometer(b *testing.B) {
	rng := rand.New(rand.NewPCG(19, 19))
	for i := 0; i < b.N; i++ {
		anyon.InterferometerConfidence(0.2, 31)
		for k := 0; k < 100; k++ {
			anyon.NoisyFluxMeasurement(1, 0.2, 31, rng)
		}
	}
}

// BenchmarkE20AnyonLogic — §7.3-§7.4: pull-through NOT and Toffoli.
func BenchmarkE20AnyonLogic(b *testing.B) {
	enc := anyon.NewA5Encoding()
	w, err := enc.FindToffoliWitness()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := anyon.NewRegister(enc.G, 3, enc.U0)
		enc.NOT(r, 0)
		enc.NOT(r, 1)
		enc.Toffoli(r, w, 0, 1, 2)
	}
}

// BenchmarkE21GenericStabilizerEC — §3.6/§4.2: generalized Shor-method
// recovery on the [[5,1,3]] code (fault tolerance for ANY stabilizer
// code).
func BenchmarkE21GenericStabilizerEC(b *testing.B) {
	cfg := ft.DefaultConfig()
	g := ft.NewGenericEC(code.FiveQubit(), 1, cfg)
	rng := rand.New(rand.NewPCG(21, 21))
	data := []int{0, 1, 2, 3, 4}
	cat := []int{5, 6, 7, 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := frame.New(11, noise.Uniform(1e-3), rng)
		g.Recover(s, data, cat, 10)
	}
}

// BenchmarkTableauVsFrame compares the two simulator layers on the same
// recovery workload (the frame simulator is what makes §5-scale Monte
// Carlo feasible).
func BenchmarkTableauVsFrame(b *testing.B) {
	b.Run("frame", func(b *testing.B) {
		rng := rand.New(rand.NewPCG(20, 20))
		cfg := ft.DefaultConfig()
		for i := 0; i < b.N; i++ {
			s := frame.New(26, noise.Uniform(1e-3), rng)
			ft.RunEC(s, ft.MethodSteane, cfg)
		}
	})
	b.Run("statevec16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := statevec.NewZero(16)
			for q := 0; q < 16; q++ {
				s.H(q)
			}
			for q := 0; q < 15; q++ {
				s.CNOT(q, q+1)
			}
		}
	})
}
