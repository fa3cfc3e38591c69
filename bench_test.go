package ftqc

// One benchmark per reproduced table/figure/equation of Preskill's
// "Fault-Tolerant Quantum Computation" (see EXPERIMENTS.md for the
// paper-vs-measured record). Each benchmark runs a representative slice
// of its experiment per iteration; cmd/ftqc runs the full-resolution
// versions.

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ftqc/internal/anyon"
	"ftqc/internal/bits"
	"ftqc/internal/code"
	"ftqc/internal/concat"
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
	rng := rand.New(rand.NewPCG(4, 4))
	for i := 0; i < b.N; i++ {
		s := frame.New(6, noise.Uniform(3e-3), rng)
		ft.PrepVerifiedCat(s, []int{0, 1, 2, 3}, 4, cfg)
	}
}

// BenchmarkE05SteaneStateVerify — §3.3 encoded-|0⟩ verification.
func BenchmarkE05SteaneStateVerify(b *testing.B) {
	cfg := ft.DefaultConfig()
	rng := rand.New(rand.NewPCG(5, 5))
	anc := []int{0, 1, 2, 3, 4, 5, 6}
	chk := []int{7, 8, 9, 10, 11, 12, 13}
	for i := 0; i < b.N; i++ {
		s := frame.New(14, noise.Uniform(3e-3), rng)
		ft.PrepVerifiedZero(s, anc, chk, cfg)
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
// polynomial MWPM, worker-pool lanes) at the near-threshold operating
// point p = 0.08, across code distances. Each iteration runs one
// 256-shot batch of the passive-memory experiment end to end: sampling,
// bit-plane syndrome extraction, transpose, per-lane decode, homology
// test. The matching baselines run at the small sizes; L = 32 is
// union-find territory (greedy needs ~10 ms per shot there).
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
			out = append(out,
				toricDecodeConfig{fmt.Sprintf("L=%d/exact", l), l, toric.DecoderExact},
				toricDecodeConfig{fmt.Sprintf("L=%d/greedy", l), l, toric.DecoderGreedy})
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
				spacetime.CodeMemory(toric.Cached(cfg.l), cfg.l, 0.025, 0.025, cfg.kind, 64, 7)
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
				spacetime.CodeCircuitMemory(toric.Cached(cfg.l), cfg.l, P, cfg.kind, 64, 7)
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
// operating point through CodeCircuitMemoryOpts.
type circuitOptsArm struct {
	name     string
	codeName string
	decoder  string
	P        noise.Params
	code     surface.Code
	opts     spacetime.DecodeOptions
}

func circuitOptsArms() []circuitOptsArm {
	const l = 8
	leaky := noise.Uniform(0.003)
	leaky.Leak = 0.01
	plain := noise.Uniform(0.006)
	return []circuitOptsArm{
		{"erasure-aware/L=8", "toric", "circuit-erasure-aware-union-find", leaky, toric.Cached(l), spacetime.DecodeOptions{ErasureAware: true}},
		{"erasure-blind/L=8", "toric", "circuit-erasure-blind-union-find", leaky, toric.Cached(l), spacetime.DecodeOptions{}},
		{"correlated/L=8", "toric", "circuit-correlated-union-find", plain, toric.Cached(l), spacetime.DecodeOptions{Correlated: true}},
		{"schedule-default/L=8", "toric", "circuit-union-find", plain, toric.Cached(l), spacetime.DecodeOptions{}},
		{"schedule-hookpar/L=8", "toric-hookpar", "circuit-union-find", plain, toric.HookParallel(l), spacetime.DecodeOptions{}},
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
				if _, err := spacetime.CodeCircuitMemoryOpts(arm.code, 8, arm.P, 64, 7, arm.opts); err != nil {
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
	for _, l := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("L=%d", l), func(b *testing.B) {
			w, c := stream.DefaultWindow(l)
			wh, wv := spacetime.Weights(pq, pq, l, 4*l)
			s, err := stream.NewCodeSession(toric.Cached(l), w, c, wh, wv)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.BatchMemoryFrom(surface.NewLayerSource(toric.Cached(l), pq, pq, 64, frame.NewAggregateSampler(7, uint64(i))), 4*l)
			}
		})
	}
	for _, l := range []int{8, 16} {
		b.Run(fmt.Sprintf("circuit/L=%d", l), func(b *testing.B) {
			const eps = 0.003
			P := noise.Uniform(eps)
			w, c := stream.DefaultWindow(l)
			wh, wv, wd := spacetime.WeightsCircuit(P, l, w)
			s, err := stream.NewCodeCircuitSession(toric.Cached(l), w, c, wh, wv, wd)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := surface.NewCircuitSource(toric.Cached(l), P, 64, frame.NewAggregateSampler(7, uint64(i)))
				s.BatchMemoryFrom(src, 4*l)
			}
		})
	}
	for _, d := range []int{5, 9} {
		b.Run(fmt.Sprintf("rotated/d=%d", d), func(b *testing.B) {
			const eps = 0.003
			P := noise.Uniform(eps)
			rc := surface.Rotated(d)
			w, c := stream.DefaultWindow(d)
			wh, wv, wd := spacetime.WeightsCircuit(P, d, w)
			s, err := stream.NewCodeCircuitSession(rc, w, c, wh, wv, wd)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := surface.NewCircuitSource(rc, P, 64, frame.NewAggregateSampler(7, uint64(i)))
				s.BatchMemoryFrom(src, 4*d)
			}
		})
	}
	for _, d := range []int{5, 9} {
		b.Run(fmt.Sprintf("planar/d=%d", d), func(b *testing.B) {
			const eps = 0.003
			P := noise.Uniform(eps)
			pc := surface.Planar(d)
			w, c := stream.DefaultWindow(d)
			wh, wv, wd := spacetime.WeightsCircuit(P, d, w)
			s, err := stream.NewCodeCircuitSession(pc, w, c, wh, wv, wd)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := surface.NewCircuitSource(pc, P, 64, frame.NewAggregateSampler(7, uint64(i)))
				s.BatchMemoryFrom(src, 4*d)
			}
		})
	}
	for _, p := range []float64{0.008, 0.002, 0.0005} {
		b.Run(fmt.Sprintf("quiet/L=16/p=%g", p), func(b *testing.B) {
			const l = 16
			w, c := stream.DefaultWindow(l)
			wh, wv := spacetime.Weights(p, p, l, 4*l)
			s, err := stream.NewCodeSession(toric.Cached(l), w, c, wh, wv)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.BatchMemoryFrom(surface.NewLayerSource(toric.Cached(l), p, p, 64, frame.NewAggregateSampler(7, uint64(i))), 4*l)
			}
		})
	}
}

// serverFleetRun drives one fleet of concurrent circuit-level sessions
// through the decode server and returns the wall time plus the
// per-session stats (the shared workload of BenchmarkServerThroughput
// and the bench-JSON server series).
func serverFleetRun(sessions, l, lanes, rounds int, eps float64, coalesce bool) (time.Duration, []server.SessionStats, server.CoalesceStats, error) {
	P := noise.Uniform(eps)
	cfg := server.CircuitLevelCode(toric.Cached(l), lanes, P)
	srv := server.New(server.Config{Coalesce: coalesce})
	defer srv.Shutdown()
	stats := make([]server.SessionStats, sessions)
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
			if _, errs[i] = s.Wait(); errs[i] != nil {
				return
			}
			stats[i] = s.Stats()
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	cst := srv.CoalesceStats()
	for _, err := range errs {
		if err != nil {
			return wall, stats, cst, err
		}
	}
	return wall, stats, cst, nil
}

// serverFleetBest runs serverFleetRun three times and keeps the
// fastest, with that run's stats. One-shot fleet walls swing with
// scheduler warm-up (the first fleet in a process pays graph interning
// and page faults for everyone); best-of-3 is what the JSON report
// records so the committed numbers track the machine, not the warm-up.
func serverFleetBest(sessions, l, lanes, rounds int, eps float64, coalesce bool) (time.Duration, []server.SessionStats, server.CoalesceStats, error) {
	var (
		bestWall  time.Duration
		bestStats []server.SessionStats
		bestCst   server.CoalesceStats
	)
	for rep := 0; rep < 3; rep++ {
		wall, stats, cst, err := serverFleetRun(sessions, l, lanes, rounds, eps, coalesce)
		if err != nil {
			return wall, stats, cst, err
		}
		if bestStats == nil || wall < bestWall {
			bestWall, bestStats, bestCst = wall, stats, cst
		}
	}
	return bestWall, bestStats, bestCst, nil
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
		wall, _, _, err := serverFleetRun(sessions, l, lanes, rounds, 0.003, false)
		if err != nil {
			b.Fatal(err)
		}
		total += wall
	}
	if total > 0 {
		b.ReportMetric(float64(sessions*rounds*b.N)/total.Seconds(), "rounds/s")
	}
}

// BenchmarkServerFleetCoalesced — the wide-fleet shape batch coalescing
// targets: 64 concurrent L=8 circuit-level sessions of 16 lanes each,
// so every slide submits a small batch and the per-submission dispatch
// overhead dominates the uncoalesced server. The /direct sub-series is
// the same fleet with coalescing off, making the merge win a same-
// binary A/B.
func BenchmarkServerFleetCoalesced(b *testing.B) {
	const sessions, l, lanes, rounds = 64, 8, 16, 32
	for _, mode := range []struct {
		name     string
		coalesce bool
	}{{"direct", false}, {"merged", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var total time.Duration
			var occ float64
			for i := 0; i < b.N; i++ {
				wall, _, cst, err := serverFleetRun(sessions, l, lanes, rounds, 0.003, mode.coalesce)
				if err != nil {
					b.Fatal(err)
				}
				total += wall
				occ += cst.Occupancy
			}
			if total > 0 {
				b.ReportMetric(float64(sessions*rounds*b.N)/total.Seconds(), "rounds/s")
			}
			if mode.coalesce && b.N > 0 {
				b.ReportMetric(occ/float64(b.N), "occupancy")
			}
		})
	}
}

// TestEmitToricBenchJSON records the decode benchmark grid to
// BENCH_toric.json (or the path in FTQC_BENCH_JSON) so the perf
// trajectory is tracked across PRs. Existing entries are merge-updated
// by name, so emitting a subset never clobbers series recorded by an
// earlier run. Skipped unless FTQC_BENCH_JSON is set: it is a
// measurement tool, not a correctness test.
func TestEmitToricBenchJSON(t *testing.T) {
	path := os.Getenv("FTQC_BENCH_JSON")
	if path == "" {
		t.Skip("set FTQC_BENCH_JSON=1 (or a path) to record decode benchmarks")
	}
	if path == "1" {
		path = "BENCH_toric.json"
	}
	type entry struct {
		Name       string  `json:"name"`
		Code       string  `json:"code"` // code family ("toric", "planar", "rotated")
		L          int     `json:"L"`
		Rounds     int     `json:"rounds"`           // 0: perfect-measurement 2D decode
		Window     int     `json:"window,omitempty"` // streaming: window height in layers
		Commit     int     `json:"commit,omitempty"` // streaming: rounds committed per slide
		P          float64 `json:"p"`
		Q          float64 `json:"q"`
		Decoder    string  `json:"decoder"`
		Samples    int     `json:"samples"` // Monte Carlo shots measured per op
		Seed       uint64  `json:"seed"`    // sampler seed of the measured runs
		ShotsPerOp int     `json:"shots_per_op"`
		NsPerOp    float64 `json:"ns_per_op"`
		NsPerShot  float64 `json:"ns_per_shot"`
		NsPerRound float64 `json:"ns_per_shot_round,omitempty"`     // streaming: per shot per round
		WindowRSS  int     `json:"resident_window_bytes,omitempty"` // streaming decoder footprint
		Sessions   int     `json:"sessions,omitempty"`              // server: concurrent sessions in the fleet
		RoundsPS   float64 `json:"rounds_per_sec,omitempty"`        // server: aggregate decoded rounds/s
		CommitP50  float64 `json:"commit_p50_ns,omitempty"`         // server: median commit latency
		CommitP99  float64 `json:"commit_p99_ns,omitempty"`         // server: tail commit latency
		Occupancy  float64 `json:"coalesce_occupancy,omitempty"`    // server: mean session batches per pool submission
		GoMaxProcs int     `json:"gomaxprocs"`                      // parallelism when this entry was measured
	}
	decoderName := map[toric.DecoderKind]string{
		toric.DecoderGreedy:    "greedy",
		toric.DecoderExact:     "exact",
		toric.DecoderUnionFind: "union-find",
	}
	report := struct {
		GoMaxProcs int     `json:"gomaxprocs"`
		UnixTime   int64   `json:"unix_time"`
		Entries    []entry `json:"entries"`
	}{GoMaxProcs: runtime.GOMAXPROCS(0), UnixTime: time.Now().Unix()}
	measure := func(run func()) float64 {
		run() // warm lattice/volume caches and scratch pools
		const iters = 5
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			run()
		}
		return float64(time.Since(t0).Nanoseconds()) / iters
	}
	const shots = 256
	for _, cfg := range toricDecodeConfigs() {
		ns := measure(func() { toric.MemoryExperiment(cfg.l, 0.08, cfg.kind, shots, 7) })
		report.Entries = append(report.Entries, entry{
			Name: "BenchmarkToricDecode/" + cfg.name, L: cfg.l, P: 0.08,
			Decoder: decoderName[cfg.kind], ShotsPerOp: shots,
			NsPerOp: ns, NsPerShot: ns / shots,
		})
	}
	const stShots = 64
	for _, cfg := range spacetimeDecodeConfigs() {
		ns := measure(func() { spacetime.CodeMemory(toric.Cached(cfg.l), cfg.l, 0.025, 0.025, cfg.kind, stShots, 7) })
		report.Entries = append(report.Entries, entry{
			Name: "BenchmarkSpacetimeDecode/" + cfg.name, L: cfg.l, Rounds: cfg.l,
			P: 0.025, Q: 0.025, Decoder: decoderName[cfg.kind], ShotsPerOp: stShots,
			NsPerOp: ns, NsPerShot: ns / stShots,
		})
	}
	// Circuit-level series: the full extraction circuit per round with
	// faults at every location, decoded over the diagonal-edge volume.
	for _, cfg := range circuitExtractConfigs() {
		P := noise.Uniform(0.006)
		ns := measure(func() { spacetime.CodeCircuitMemory(toric.Cached(cfg.l), cfg.l, P, cfg.kind, stShots, 7) })
		report.Entries = append(report.Entries, entry{
			Name: "BenchmarkCircuitExtract/" + cfg.name, L: cfg.l, Rounds: cfg.l,
			P: 0.006, Q: 0.006, Decoder: "circuit-" + decoderName[cfg.kind], ShotsPerOp: stShots,
			NsPerOp: ns, NsPerShot: ns / stShots,
		})
	}
	// Erasure/correlated/schedule series: the options-pipeline arms —
	// aware vs blind on the same injected leakage, the serialized
	// two-sector correlated decode, and the CNOT-schedule ablation.
	for _, arm := range circuitOptsArms() {
		arm := arm
		ns := measure(func() {
			if _, err := spacetime.CodeCircuitMemoryOpts(arm.code, 8, arm.P, stShots, 7, arm.opts); err != nil {
				t.Fatal(err)
			}
		})
		report.Entries = append(report.Entries, entry{
			Name: "BenchmarkCircuitOpts/" + arm.name, Code: arm.codeName, L: 8, Rounds: 8,
			P: arm.P.Gate1, Q: arm.P.Gate1, Decoder: arm.decoder, ShotsPerOp: stShots,
			NsPerOp: ns, NsPerShot: ns / stShots,
		})
	}
	// Correlated + erasure-aware streaming series: the serialized
	// primal→dual slides with per-layer erasure planes, the worst-case
	// options load the streaming pipeline carries.
	{
		const l, eps = 8, 0.003
		P := noise.Uniform(eps)
		P.Leak = 0.01
		w, c := stream.DefaultWindow(l)
		rounds := 4 * l
		opts := spacetime.DecodeOptions{ErasureAware: true, Correlated: true}
		ns := measure(func() {
			if _, err := stream.CodeCircuitMemoryOpts(toric.Cached(l), rounds, P, w, c, stShots, 7, opts); err != nil {
				t.Fatal(err)
			}
		})
		report.Entries = append(report.Entries, entry{
			Name: fmt.Sprintf("BenchmarkStreamDecode/correlated/L=%d", l), L: l, Rounds: rounds,
			Window: w, Commit: c, P: eps, Q: eps,
			Decoder: "window-circuit-correlated-union-find", ShotsPerOp: stShots,
			NsPerOp: ns, NsPerShot: ns / stShots,
			NsPerRound: ns / stShots / float64(rounds),
		})
	}
	// Streaming series: T = 4L rounds through W = 2L windows, plus the
	// resident window footprint of a 64-lane decoder in steady state.
	for _, l := range []int{4, 8, 16} {
		w, c := stream.DefaultWindow(l)
		wh, wv := spacetime.Weights(0.025, 0.025, l, 4*l)
		s, err := stream.NewCodeSession(toric.Cached(l), w, c, wh, wv)
		if err != nil {
			t.Fatal(err)
		}
		rounds := 4 * l
		ns := measure(func() {
			s.BatchMemoryFrom(surface.NewLayerSource(toric.Cached(l), 0.025, 0.025, stShots, frame.NewAggregateSampler(7, 0)), rounds)
		})
		d := s.NewDecoder(stShots)
		src := surface.NewLayerSource(toric.Cached(l), 0.025, 0.025, stShots, frame.NewAggregateSampler(7, 1))
		nc := l * l
		layerX := bits.NewVecs(nc, stShots)
		layerZ := bits.NewVecs(nc, stShots)
		for r := 0; r < 3*w; r++ {
			src.NextLayers(layerX, layerZ)
			d.Push(layerX, layerZ)
		}
		foot := d.FootprintBytes()
		s.Close()
		report.Entries = append(report.Entries, entry{
			Name: fmt.Sprintf("BenchmarkStreamDecode/L=%d", l), L: l, Rounds: rounds,
			Window: w, Commit: c, P: 0.025, Q: 0.025, Decoder: "window-" + decoderName[toric.DecoderUnionFind],
			ShotsPerOp: stShots, NsPerOp: ns, NsPerShot: ns / stShots,
			NsPerRound: ns / stShots / float64(rounds), WindowRSS: foot,
		})
	}
	// Circuit-level streaming series: the extraction circuit streamed
	// round by round through the diagonal-edge windows.
	for _, l := range []int{8, 16} {
		const eps = 0.003
		P := noise.Uniform(eps)
		w, c := stream.DefaultWindow(l)
		wh, wv, wd := spacetime.WeightsCircuit(P, l, w)
		s, err := stream.NewCodeCircuitSession(toric.Cached(l), w, c, wh, wv, wd)
		if err != nil {
			t.Fatal(err)
		}
		rounds := 4 * l
		ns := measure(func() {
			src := surface.NewCircuitSource(toric.Cached(l), P, stShots, frame.NewAggregateSampler(7, 0))
			s.BatchMemoryFrom(src, rounds)
		})
		s.Close()
		report.Entries = append(report.Entries, entry{
			Name: fmt.Sprintf("BenchmarkStreamDecode/circuit/L=%d", l), L: l, Rounds: rounds,
			Window: w, Commit: c, P: eps, Q: eps, Decoder: "window-circuit-" + decoderName[toric.DecoderUnionFind],
			ShotsPerOp: stShots, NsPerOp: ns, NsPerShot: ns / stShots,
			NsPerRound: ns / stShots / float64(rounds),
		})
	}
	// Planar streaming series: the open-boundary planar code's
	// extraction circuit through boundary-grounded diagonal-edge
	// windows — same operating point as the toric circuit series, so
	// the two families' per-shot·round costs are directly comparable.
	for _, d := range []int{5, 9} {
		const eps = 0.003
		P := noise.Uniform(eps)
		pc := surface.Planar(d)
		w, c := stream.DefaultWindow(d)
		wh, wv, wd := spacetime.WeightsCircuit(P, d, w)
		s, err := stream.NewCodeCircuitSession(pc, w, c, wh, wv, wd)
		if err != nil {
			t.Fatal(err)
		}
		rounds := 4 * d
		ns := measure(func() {
			src := surface.NewCircuitSource(pc, P, stShots, frame.NewAggregateSampler(7, 0))
			s.BatchMemoryFrom(src, rounds)
		})
		s.Close()
		report.Entries = append(report.Entries, entry{
			Name: fmt.Sprintf("BenchmarkStreamDecode/planar/d=%d", d), Code: "planar", L: d, Rounds: rounds,
			Window: w, Commit: c, P: eps, Q: eps, Decoder: "window-circuit-" + decoderName[toric.DecoderUnionFind],
			ShotsPerOp: stShots, NsPerOp: ns, NsPerShot: ns / stShots,
			NsPerRound: ns / stShots / float64(rounds),
		})
	}
	// Rotated streaming series: the rotated code's extraction circuit
	// through the same boundary-grounded windows — the cheapest code
	// family (d² data qubits) gets the same perf trajectory planar got
	// in PR 8.
	for _, d := range []int{5, 9} {
		const eps = 0.003
		P := noise.Uniform(eps)
		rc := surface.Rotated(d)
		w, c := stream.DefaultWindow(d)
		wh, wv, wd := spacetime.WeightsCircuit(P, d, w)
		s, err := stream.NewCodeCircuitSession(rc, w, c, wh, wv, wd)
		if err != nil {
			t.Fatal(err)
		}
		rounds := 4 * d
		ns := measure(func() {
			src := surface.NewCircuitSource(rc, P, stShots, frame.NewAggregateSampler(7, 0))
			s.BatchMemoryFrom(src, rounds)
		})
		s.Close()
		report.Entries = append(report.Entries, entry{
			Name: fmt.Sprintf("BenchmarkStreamDecode/rotated/d=%d", d), Code: "rotated", L: d, Rounds: rounds,
			Window: w, Commit: c, P: eps, Q: eps, Decoder: "window-circuit-" + decoderName[toric.DecoderUnionFind],
			ShotsPerOp: stShots, NsPerOp: ns, NsPerShot: ns / stShots,
			NsPerRound: ns / stShots / float64(rounds),
		})
	}
	// Quiet-region sweep: the L=16 stream well below threshold, where
	// the persistent-forest slide and sparse skip dominate the cost.
	for _, p := range []float64{0.008, 0.002, 0.0005} {
		const l = 16
		w, c := stream.DefaultWindow(l)
		wh, wv := spacetime.Weights(p, p, l, 4*l)
		s, err := stream.NewCodeSession(toric.Cached(l), w, c, wh, wv)
		if err != nil {
			t.Fatal(err)
		}
		rounds := 4 * l
		ns := measure(func() {
			s.BatchMemoryFrom(surface.NewLayerSource(toric.Cached(l), p, p, stShots, frame.NewAggregateSampler(7, 0)), rounds)
		})
		s.Close()
		report.Entries = append(report.Entries, entry{
			Name: fmt.Sprintf("BenchmarkStreamDecode/quiet/L=%d/p=%g", l, p), L: l, Rounds: rounds,
			Window: w, Commit: c, P: p, Q: p, Decoder: "window-" + decoderName[toric.DecoderUnionFind],
			ShotsPerOp: stShots, NsPerOp: ns, NsPerShot: ns / stShots,
			NsPerRound: ns / stShots / float64(rounds),
		})
	}
	// Server series: a sustained fleet through the multi-tenant decode
	// server, reporting aggregate throughput and commit-latency tails.
	{
		const sessions, l, lanes, rounds = 8, 8, 64, 32
		wall, stats, _, err := serverFleetBest(sessions, l, lanes, rounds, 0.003, false)
		if err != nil {
			t.Fatal(err)
		}
		var p50, p99 time.Duration
		for _, st := range stats {
			p50 += st.Latency.P50
			p99 += st.Latency.P99
		}
		report.Entries = append(report.Entries, entry{
			Name: "BenchmarkServerThroughput", L: l, Rounds: rounds,
			P: 0.003, Q: 0.003, Decoder: "server-union-find", Seed: 9100, ShotsPerOp: lanes,
			NsPerOp: float64(wall.Nanoseconds()), Sessions: sessions,
			NsPerShot: float64(wall.Nanoseconds()) / float64(sessions*rounds*lanes),
			RoundsPS:  float64(sessions*rounds) / wall.Seconds(),
			CommitP50: float64(p50.Nanoseconds()) / sessions,
			CommitP99: float64(p99.Nanoseconds()) / sessions,
		})
	}
	// Wide-fleet series: 64 small sessions on one window shape, with
	// and without cross-session batch coalescing — the pair the
	// coalescer's throughput claim is measured on. The per-shot·round
	// figure makes these comparable to the streaming series.
	for _, mode := range []struct {
		name     string
		coalesce bool
	}{{"direct", false}, {"merged", true}} {
		const sessions, l, lanes, rounds = 64, 8, 16, 32
		wall, _, cst, err := serverFleetBest(sessions, l, lanes, rounds, 0.003, mode.coalesce)
		if err != nil {
			t.Fatal(err)
		}
		e := entry{
			Name: "BenchmarkServerFleetCoalesced/" + mode.name, L: l, Rounds: rounds,
			P: 0.003, Q: 0.003, Decoder: "server-union-find", Seed: 9100, ShotsPerOp: lanes,
			NsPerOp: float64(wall.Nanoseconds()), Sessions: sessions,
			NsPerShot:  float64(wall.Nanoseconds()) / float64(sessions*rounds*lanes),
			NsPerRound: float64(wall.Nanoseconds()) / float64(sessions*rounds*lanes),
			RoundsPS:   float64(sessions*rounds) / wall.Seconds(),
		}
		if mode.coalesce {
			e.Occupancy = cst.Occupancy
		}
		report.Entries = append(report.Entries, e)
	}
	for i := range report.Entries {
		e := &report.Entries[i]
		e.GoMaxProcs = runtime.GOMAXPROCS(0)
		if e.Code == "" {
			e.Code = "toric"
		}
		if e.Samples == 0 {
			e.Samples = e.ShotsPerOp
		}
		if e.Seed == 0 {
			e.Seed = 7
		}
	}
	// Every streaming series must carry the per-shot·round figure — the
	// number the perf trajectory tracks — and the CI smoke re-checks the
	// committed file for the same invariant.
	for _, e := range report.Entries {
		if strings.HasPrefix(e.Name, "BenchmarkStreamDecode") && e.NsPerRound <= 0 {
			t.Errorf("streaming series %s missing ns_per_shot_round", e.Name)
		}
	}
	// Merge-update: entries already in the file keep their place and are
	// replaced by name; series this run did not measure survive.
	if prev, err := os.ReadFile(path); err == nil {
		var old struct {
			Entries []entry `json:"entries"`
		}
		if json.Unmarshal(prev, &old) == nil && len(old.Entries) > 0 {
			idx := make(map[string]int, len(old.Entries))
			for i, e := range old.Entries {
				idx[e.Name] = i
			}
			merged := old.Entries
			for _, e := range report.Entries {
				if i, ok := idx[e.Name]; ok {
					merged[i] = e
				} else {
					idx[e.Name] = len(merged)
					merged = append(merged, e)
				}
			}
			report.Entries = merged
		}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d benchmark entries to %s", len(report.Entries), path)
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
