// Command ftqc regenerates every quantitative result of Preskill's
// "Fault-Tolerant Quantum Computation": one subcommand per experiment of
// the EXPERIMENTS.md index, each printing the rows the paper's equations
// and figures describe. Run `ftqc help` for the list.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ftqc/internal/bits"

	"ftqc/internal/anyon"
	"ftqc/internal/code"
	"ftqc/internal/concat"
	"ftqc/internal/frame"
	"ftqc/internal/ft"
	"ftqc/internal/noise"
	"ftqc/internal/resource"
	"ftqc/internal/server"
	"ftqc/internal/spacetime"
	"ftqc/internal/stream"
	"ftqc/internal/surface"
	"ftqc/internal/threshold"
	"ftqc/internal/toric"
)

type command struct {
	name  string
	about string
	run   func(args []string)
}

var commands []command

func main() {
	commands = []command{
		{"memory", "E01: encoded vs unencoded memory fidelity (Eq. 14)", cmdMemory},
		{"badgood", "E03: naive vs fault-tolerant syndrome circuits (Figs. 2/6)", cmdBadGood},
		{"ancilla", "E04/E05: cat-state and Steane-state verification statistics (Fig. 8, §3.3)", cmdAncilla},
		{"policy", "E06: syndrome repetition policy ablation (§3.4)", cmdPolicy},
		{"exrec", "E07: exRec failure curve and A-coefficient fit (Fig. 9, §5)", cmdExRec},
		{"thresholds", "E08: gate-only and storage-only pseudothresholds (Eqs. 34-35)", cmdThresholds},
		{"concat", "E09/E10: concatenation flow, levels, block scaling (Eqs. 33, 36, 37)", cmdConcat},
		{"shorfamily", "E11: non-concatenated block optimization (Eqs. 30-32)", cmdShorFamily},
		{"resources", "E12: factoring-432 machine sizing (§6)", cmdResources},
		{"systematic", "E13: random vs systematic error accumulation (§6)", cmdSystematic},
		{"leakage", "E14: leakage detection and replacement (Fig. 15)", cmdLeakage},
		{"toric", "E17: toric memory vs distance (§7.1)", cmdToric},
		{"spacetime", "E22: noisy syndrome extraction — 3D space-time decoding, sustained threshold", cmdSpacetime},
		{"stream", "E23: streaming windowed decoding — sustained operation in constant memory", cmdStream},
		{"circuit", "E24: circuit-level extraction — faults at every location, diagonal-edge decoding", cmdCircuit},
		{"codes", "E27: code families — toric vs planar vs rotated vs concatenated Steane", cmdCodes},
		{"serve", "E25: multi-tenant decode server — N concurrent sessions, commit-latency histograms", cmdServe},
		{"sessions", "E25: decode-server observability — live session snapshots under churn", cmdSessions},
		{"thermal", "E18: thermal anyon plasma, e^{-Δ/T} (§7.1)", cmdThermal},
		{"interferometer", "E19: repeated interferometric measurement (Figs. 18/22)", cmdInterferometer},
		{"anyon", "E20: A5 fluxon logic — NOT, Toffoli, pull counts (§7.3-7.4)", cmdAnyon},
	}
	if len(os.Args) < 2 {
		// A bare invocation is a usage error, not a request for help:
		// print the summary where errors go and fail, so scripts notice.
		usage(os.Stderr)
		os.Exit(2)
	}
	if os.Args[1] == "help" || os.Args[1] == "-h" {
		usage(os.Stdout)
		return
	}
	for _, c := range commands {
		if c.name == os.Args[1] {
			c.run(os.Args[2:])
			return
		}
	}
	fmt.Fprintf(os.Stderr, "ftqc: unknown command %q\n\n", os.Args[1])
	usage(os.Stderr)
	os.Exit(2)
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: ftqc <command> [flags]")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Each command reproduces one experiment of the EXPERIMENTS.md index and")
	fmt.Fprintln(w, "prints the corresponding table. Common flags share names everywhere:")
	fmt.Fprintln(w, "  -L        code distance(s); comma-separated lists sweep")
	fmt.Fprintln(w, "  -T        measurement rounds per shot (a number, or L for rounds = distance)")
	fmt.Fprintln(w, "  -p        error-probability grid; for `circuit` it is the uniform")
	fmt.Fprintln(w, "            per-location rate eps (every prep, CNOT, measurement, idle step)")
	fmt.Fprintln(w, "  -decoder  decoding strategy: uf (union-find) or exact (blossom MWPM;")
	fmt.Fprintln(w, "            circuit-metric priced on `circuit`)")
	fmt.Fprintln(w, "  -window   sliding-window height in rounds (stream; circuit -window > 0")
	fmt.Fprintln(w, "            switches the sweep to the streaming pipeline)")
	fmt.Fprintln(w, "  -samples  Monte Carlo samples per grid point")
	fmt.Fprintln(w, "  -seed     base RNG seed of a sweep (stamped in the output header; the")
	fmt.Fprintln(w, "            historical defaults reproduce the tables in EXPERIMENTS.md)")
	fmt.Fprintln(w, "Run `ftqc <command> -h` for the full flag list of a command.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "commands:")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-15s %s\n", c.name, c.about)
	}
}

// profileFlags registers -cpuprofile/-memprofile on the long-running
// decode subcommands. After fs.Parse, call the returned start function;
// defer the stop function it returns — it finishes the CPU profile and
// writes the heap profile (after a GC, so it shows the resident state,
// not collectable garbage).
func profileFlags(fs *flag.FlagSet) func() func() {
	cpu := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	mem := fs.String("memprofile", "", "write a heap profile to this file when the run ends")
	return func() func() {
		var cpuF *os.File
		if *cpu != "" {
			f, err := os.Create(*cpu)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", fs.Name(), err)
				os.Exit(2)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", fs.Name(), err)
				os.Exit(2)
			}
			cpuF = f
		}
		return func() {
			if cpuF != nil {
				pprof.StopCPUProfile()
				cpuF.Close()
			}
			if *mem != "" {
				f, err := os.Create(*mem)
				if err != nil {
					fmt.Fprintf(os.Stderr, "%s: %v\n", fs.Name(), err)
					os.Exit(2)
				}
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintf(os.Stderr, "%s: %v\n", fs.Name(), err)
					os.Exit(2)
				}
				f.Close()
			}
		}
	}
}

func cmdMemory(args []string) {
	fs := flag.NewFlagSet("memory", flag.ExitOnError)
	rounds := fs.Int("rounds", 10, "recovery rounds")
	samples := fs.Int("samples", 20000, "Monte Carlo samples per point")
	ideal := fs.Bool("ideal", false, "use flawless recovery circuitry (the Eq. 14 idealization)")
	parse(fs, args)
	require(fs, check(*rounds >= 1, "rounds", *rounds, "at least 1"))
	cfg := ft.DefaultConfig()
	fmt.Printf("E01: quantum memory, %d rounds (Steane EC)\n", *rounds)
	fmt.Printf("%-10s %-14s %-14s %-10s\n", "eps", "unencoded", "encoded", "gain")
	for _, eps := range []float64{3e-4, 1e-3, 3e-3, 1e-2} {
		storage := noise.StorageOnly(eps)
		gadget := noise.Uniform(eps)
		if *ideal {
			gadget = noise.Params{}
		}
		enc := ft.MemoryExperiment(ft.MethodSteane, storage, gadget, cfg, *rounds, *samples, 11)
		raw := ft.UnencodedMemory(storage, *rounds, *samples, 12)
		gain := math.NaN()
		if enc.FailRate() > 0 {
			gain = raw.FailRate() / enc.FailRate()
		}
		fmt.Printf("%-10.1e %-14.4e %-14.4e %-10.2f\n", eps, raw.FailRate(), enc.FailRate(), gain)
	}
}

func cmdBadGood(args []string) {
	fs := flag.NewFlagSet("badgood", flag.ExitOnError)
	samples := fs.Int("samples", 50000, "samples per point")
	parse(fs, args)
	cfg := ft.DefaultConfig()
	fmt.Println("E03: single recovery on a clean block — naive (Fig. 2) vs fault tolerant (Figs. 6-9)")
	fmt.Printf("%-10s %-14s %-14s %-14s\n", "eps", "naive", "shor", "steane")
	for _, eps := range []float64{1e-4, 3e-4, 1e-3, 3e-3} {
		p := noise.Uniform(eps)
		n := ft.ECFailureRate(ft.MethodNaive, p, cfg, *samples, 21)
		sh := ft.ECFailureRate(ft.MethodShor, p, cfg, *samples, 22)
		st := ft.ECFailureRate(ft.MethodSteane, p, cfg, *samples, 23)
		fmt.Printf("%-10.1e %-14.4e %-14.4e %-14.4e\n", eps, n.FailRate(), sh.FailRate(), st.FailRate())
	}
	fmt.Println("naive scales ~O(eps); the verified gadgets scale ~O(eps^2)")
}

func cmdAncilla(args []string) {
	fs := flag.NewFlagSet("ancilla", flag.ExitOnError)
	samples := fs.Int("samples", 30000, "samples")
	parse(fs, args)
	cfg := ft.DefaultConfig()
	fmt.Println("E04: cat-state verification (Fig. 8) acceptance statistics")
	fmt.Printf("%-10s %-12s %-16s\n", "eps", "attempts", "accept rate")
	for _, eps := range []float64{1e-3, 3e-3, 1e-2, 3e-2} {
		att := ft.CatPrepAttempts(noise.Uniform(eps), cfg, *samples, 31)
		fmt.Printf("%-10.1e %-12.3f %-16.3f\n", eps, att, 1/att)
	}
	fmt.Println("\nE05: Steane-state verification (§3.3): verified |0̄⟩ blocks left with X weight ≥ 2")
	fmt.Printf("%-10s %-14s\n", "eps", "escape rate")
	for _, eps := range []float64{1e-3, 3e-3, 1e-2} {
		fmt.Printf("%-10.1e %-14.4e\n", eps, ft.ZeroPrepEscapes(noise.Uniform(eps), cfg, *samples, 32))
	}
}

func cmdPolicy(args []string) {
	fs := flag.NewFlagSet("policy", flag.ExitOnError)
	samples := fs.Int("samples", 60000, "samples")
	parse(fs, args)
	fmt.Println("E06: §3.4 syndrome policy ablation (Steane EC, uniform noise)")
	fmt.Printf("%-10s %-14s %-14s %-14s\n", "eps", "once", "repeat-nontriv", "until-agree")
	for _, eps := range []float64{3e-4, 1e-3, 3e-3} {
		p := noise.Uniform(eps)
		row := []float64{}
		for _, pol := range []ft.SyndromePolicy{ft.PolicyOnce, ft.PolicyRepeatNontrivial, ft.PolicyUntilAgree} {
			cfg := ft.DefaultConfig()
			cfg.Policy = pol
			r := ft.ExRecCNOT(ft.MethodSteane, p, cfg, *samples, 41)
			row = append(row, r.FailRate())
		}
		fmt.Printf("%-10.1e %-14.4e %-14.4e %-14.4e\n", eps, row[0], row[1], row[2])
	}
}

func cmdExRec(args []string) {
	fs := flag.NewFlagSet("exrec", flag.ExitOnError)
	samples := fs.Int("samples", 100000, "samples per point")
	parse(fs, args)
	cfg := ft.DefaultConfig()
	eps := []float64{1e-4, 2e-4, 4e-4, 8e-4, 1.6e-3}
	fmt.Println("E07: transversal-XOR extended rectangle (Fig. 9 recovery), uniform noise")
	for _, m := range []ft.ECMethod{ft.MethodSteane, ft.MethodShor} {
		est := threshold.Run(m, noise.Uniform, eps, cfg, *samples, 51)
		fmt.Print(est)
	}
	fmt.Println("paper block model (Eq. 33): p_L+1 = 21 p_L^2, threshold 1/21 = 4.8e-2 per block-cycle")
}

func cmdThresholds(args []string) {
	fs := flag.NewFlagSet("thresholds", flag.ExitOnError)
	samples := fs.Int("samples", 100000, "samples per point")
	parse(fs, args)
	cfg := ft.DefaultConfig()
	eps := []float64{1e-4, 2e-4, 4e-4, 8e-4}
	gate := threshold.Run(ft.MethodSteane, noise.GateOnly, eps, cfg, *samples, 61)
	store := threshold.Run(ft.MethodSteane, noise.StorageOnly, []float64{4e-4, 1e-3, 2e-3, 4e-3}, cfg, *samples, 62)
	fmt.Println("E08: circuit-level pseudothresholds (paper Eqs. 34-35: both ~6e-4)")
	fmt.Printf("gate-only:    %s\n", gate.Fit("threshold"))
	fmt.Printf("storage-only: %s\n", store.Fit("threshold"))
	fmt.Print("\ngate-only curve:\n", gate)
	fmt.Print("storage-only curve:\n", store)
}

func cmdConcat(args []string) {
	fs := flag.NewFlagSet("concat", flag.ExitOnError)
	a := fs.Float64("A", 21, "flow coefficient (21 = paper's counting estimate)")
	parse(fs, args)
	require(fs, check(*a > 0, "A", *a, "positive"))
	f := concat.Flow{A: *a}
	fmt.Printf("E09: concatenation flow p_(L+1) = %.3g p_L^2, threshold %.3g\n", f.A, f.Threshold())
	fmt.Printf("%-10s", "p0")
	for l := 0; l <= 4; l++ {
		fmt.Printf(" L=%-12d", l)
	}
	fmt.Println()
	for _, p0 := range []float64{f.Threshold() * 0.9, 1e-2, 1e-3, 1e-4} {
		fmt.Printf("%-10.2e", p0)
		for _, p := range f.Levels(p0, 4) {
			fmt.Printf(" %-14.3e", p)
		}
		fmt.Println()
	}
	fmt.Println("\nE10: block size for a T-gate computation (Eq. 37, exponent log2(7)=2.81)")
	fmt.Printf("%-12s %-12s %-14s %-12s\n", "eps", "T", "blocksize", "levels(7^L)")
	for _, tGates := range []float64{1e6, 1e9, 3e9, 1e12} {
		eps := 1e-6
		bs := concat.BlockSizeForComputation(eps, f.Threshold(), tGates)
		lv := f.LevelsNeeded(eps, 1/tGates)
		fmt.Printf("%-12.1e %-12.1e %-14.1f 7^%d=%d\n", eps, tGates, bs, lv, concat.BlockSize(lv))
	}
}

func cmdShorFamily(args []string) {
	fs := flag.NewFlagSet("shorfamily", flag.ExitOnError)
	b := fs.Float64("b", 4, "syndrome complexity exponent (Shor's procedure: b=4)")
	parse(fs, args)
	require(fs, check(*b > 0, "b", *b, "positive"))
	fmt.Printf("E11: non-concatenated block optimization, complexity t^%.1f (Eqs. 30-31)\n", *b)
	fmt.Printf("%-10s %-10s %-14s %-14s %-12s\n", "eps", "opt t", "min perr", "asymptotic", "block (2t+1)^2")
	for _, eps := range []float64{1e-4, 1e-5, 1e-6} {
		t := concat.OptimalT(*b, eps)
		p := concat.BlockErrorProbability(t, *b, eps)
		asym := concat.MinBlockError(*b, eps)
		fmt.Printf("%-10.1e %-10d %-14.3e %-14.3e %-12d\n", eps, t, p, asym, concat.ShorFamilyBlockSize(t))
	}
	fmt.Println("\naccuracy needed for T cycles (Eq. 32: eps ~ (log T)^-b):")
	for _, tg := range []float64{1e6, 1e9, 1e12} {
		fmt.Printf("  T=%.0e -> eps ~ %.2e\n", tg, concat.AccuracyForComputation(tg, *b))
	}
}

func cmdResources(args []string) {
	fs := flag.NewFlagSet("resources", flag.ExitOnError)
	bits := fs.Int("bits", 432, "RSA modulus size (432 bits = 130 digits)")
	flowA := fs.Float64("A", 1e4, "calibrated flow coefficient")
	parse(fs, args)
	require(fs, check(*bits >= 1, "bits", *bits, "at least 1"))
	require(fs, check(*flowA > 0, "A", *flowA, "positive"))
	w := resource.Factoring(*bits)
	fmt.Printf("E12: factoring a %d-bit number with Shor's algorithm (§6)\n", *bits)
	fmt.Printf("logical qubits: %d (paper: 2160)\n", w.LogicalQubits)
	fmt.Printf("Toffoli gates:  %.2e (paper: ~3e9)\n", w.ToffoliGates)
	fmt.Printf("budgets: gate error %.0e, storage %.0e\n\n", w.TargetGateError, w.TargetStorageError)
	m1, err := resource.SizeConcatenated(w, 1e-6, concat.Flow{A: *flowA}, 3.0)
	if err != nil {
		fmt.Println("concatenated sizing failed:", err)
	} else {
		fmt.Println(m1)
		fmt.Printf("  expected logical failures over the run: %.2g (paper: <1 at L=3, block 343, ~1e6 qubits)\n", m1.ExpectedFailures(w))
	}
	m2 := resource.SizeSteane55(w, 1e-5)
	fmt.Println(m2)
	fmt.Printf("  expected logical failures over the run: %.2g (paper: 4e5 qubits at 1e-5)\n", m2.ExpectedFailures(w))
}

func cmdSystematic(args []string) {
	fs := flag.NewFlagSet("systematic", flag.ExitOnError)
	theta := fs.Float64("theta", 0.001, "per-gate rotation angle")
	samples := fs.Int("samples", 2000, "random-walk samples")
	parse(fs, args)
	fmt.Printf("E13: drift accumulation, per-step angle θ=%.1e (§6)\n", *theta)
	fmt.Printf("%-8s %-16s %-16s %-10s\n", "steps", "coherent", "random-walk", "ratio")
	rng := rand.New(rand.NewPCG(71, 72))
	for _, n := range []int{100, 200, 400, 800} {
		c := noise.CoherentDriftError(*theta, n)
		r := noise.RandomWalkDriftError(*theta, n, *samples, rng)
		fmt.Printf("%-8d %-16.4e %-16.4e %-10.1f\n", n, c, r, c/r)
	}
	fmt.Println("coherent ∝ N² (amplitude adds), random ∝ N (probability adds)")
	fmt.Printf("threshold penalty: random ε0=6e-4 → systematic ~ %.1e (ε0²)\n",
		noise.SystematicThresholdPenalty(6e-4))
}

func cmdLeakage(args []string) {
	fs := flag.NewFlagSet("leakage", flag.ExitOnError)
	samples := fs.Int("samples", 20000, "samples")
	rounds := fs.Int("rounds", 5, "EC rounds")
	parse(fs, args)
	require(fs, check(*rounds >= 1, "rounds", *rounds, "at least 1"))
	cfg := ft.DefaultConfig()
	fmt.Println("E14: leakage detection (Fig. 15): store with leaky gates, ± detection circuit")
	fmt.Printf("%-10s %-10s %-16s %-16s\n", "eps", "leak", "no detection", "detect+replace")
	for _, eps := range []float64{1e-3, 3e-3} {
		for _, leak := range []float64{1e-3, 3e-3} {
			p := noise.Uniform(eps)
			p.Leak = leak
			off := ft.LeakageExperiment(p, cfg, *rounds, *samples, false, 81)
			on := ft.LeakageExperiment(p, cfg, *rounds, *samples, true, 82)
			fmt.Printf("%-10.1e %-10.1e %-16.4e %-16.4e\n", eps, leak, off.FailRate(), on.FailRate())
		}
	}
}

func cmdToric(args []string) {
	fs := newFlags("toric",
		shared{"samples", 20000, "samples per point"},
		shared{"decoder", "uf", "decoder: exact (polynomial MWPM) or uf (union-find)"},
		shared{"L", "3,5,7,9", "comma-separated code distances"},
		shared{"seed", uint64(91), "base RNG seed for the sweep (each cell advances it)"})
	big := fs.Bool("big", false, "extend the distance sweep to L=16 and L=32 (union-find territory)")
	g := parse(fs, args)
	if *big {
		g.ls = append(g.ls, 16, 32)
	}
	fmt.Printf("E17: toric-code passive memory (§7.1): logical failure vs distance L (%s decoder, seed %d)\n", g.decoder, g.seed)
	table{corner: "p\\L", rowFmt: "%-8.2f", width: 12, head: strconv.Itoa,
		cell: func(l int, p float64, seed uint64) float64 {
			return must(toric.MemoryExperiment(l, p, g.kind, g.samples, seed)).FailRate()
		},
	}.print(g.ls, []float64{0.01, 0.03, 0.05, 0.08, 0.12}, g.seed)
	fmt.Println("below threshold the failure falls like e^{-αL} (the paper's e^{-mL} tunneling scaling)")
}

func cmdSpacetime(args []string) {
	fs := newFlags("spacetime",
		shared{"L", "4,8", "comma-separated code distances"},
		shared{"T", "L", "measurement rounds per shot: a number, or L for rounds = distance"},
		shared{"q", -1.0, "measurement error probability (-1: track p, the sustained p=q sweep)"},
		shared{"p", "0.01,0.015,0.02,0.025,0.03,0.04,0.05", "comma-separated data error probabilities"},
		shared{"samples", 4000, "Monte Carlo samples per point"},
		shared{"decoder", "uf", "decoder: uf (weighted union-find) or exact (weighted blossom MWPM)"},
		shared{"seed", uint64(121), "base RNG seed for the sweep (each cell advances it)"})
	fs.Var(fs.Lookup("T").Value, "rounds", "alias for -T")
	pe := fs.Float64("pe", 0, "data-qubit leakage (erasure) probability per edge per round")
	qe := fs.Float64("qe", 0, "lost-measurement probability per check per round")
	compare := fs.Bool("compare", true, "cross-check union-find against exact MWPM at the smallest distance")
	g := parse(fs, args)
	require(fs, check(isProb(*pe), "pe", *pe, "a probability in [0, 1]"))
	require(fs, check(isProb(*qe), "qe", *qe, "a probability in [0, 1]"))
	erased := *pe > 0 || *qe > 0
	require(fs, check(!erased || g.kind == toric.DecoderUnionFind, "decoder", g.decoder, "uf with -pe/-qe (erasure decoding is union-find only)"))
	opts := spacetime.DecodeOptions{ErasureAware: erased}
	run := func(l int, p float64, k toric.DecoderKind, seed uint64) float64 {
		m := spacetime.Phenomenological(p, g.qOf(p), *pe, *qe)
		return must(stream.VolumeMemory(toric.Cached(l), g.rounds(l), m, k, opts, g.samples, seed)).FailRate()
	}
	t := table{corner: "p\\L", rowFmt: "%-8.3f", width: 12,
		head:     func(l int) string { return fmt.Sprintf("%d (T=%d)", l, g.rounds(l)) },
		cell:     func(l int, p float64, seed uint64) float64 { return run(l, p, g.kind, seed) },
		crossing: "sustained threshold (L=%d vs L=%d failure curves cross): p = q ≈ %.3f",
	}
	if g.q >= 0 {
		t.crossing = fmt.Sprintf("threshold at fixed q=%g", g.q) + " (L=%d vs L=%d failure curves cross): p ≈ %.3f"
	}
	if exactCheck(*compare && g.kind != toric.DecoderExact && !erased, g.ls[0]) {
		t.checkHead = fmt.Sprintf("%d exact", g.ls[0])
		t.check = func(p float64, seed uint64) float64 { return run(g.ls[0], p, toric.DecoderExact, seed+1000) }
	}
	fmt.Printf("E22: noisy syndrome extraction (%s decoder, seed %d): T rounds of measurement flipping with q,\n", g.decoder, g.seed)
	fmt.Println("     defects = consecutive-round syndrome differences, decoded over the weighted 3D volume")
	if erased {
		fmt.Printf("     erasure channels: leaked data qubits pe=%g, lost measurements qe=%g (peeling-aware decode)\n", *pe, *qe)
	}
	t.print(g.ls, g.ps, g.seed)
	if len(g.ls) >= 2 {
		fmt.Println("below the crossing, larger distance + more rounds help; above, they hurt")
	}
}

func cmdStream(args []string) {
	fs := newFlags("stream",
		shared{"L", "4,8", "comma-separated code distances"},
		shared{"T", "4L", "noisy rounds per shot: a number, or 4L for rounds = 4·distance"},
		shared{"window", 0, "sliding-window height in rounds (0: the 2L default)"},
		shared{"commit", 0, "rounds committed per slide (0: half the window)"},
		shared{"q", -1.0, "measurement error probability (-1: track p, the sustained p=q sweep)"},
		shared{"p", "0.01,0.015,0.02,0.025,0.03,0.04,0.05", "comma-separated data error probabilities"},
		shared{"samples", 4000, "Monte Carlo samples per point"},
		shared{"seed", uint64(151), "base RNG seed for the sweep (each cell advances it)"})
	volume := fs.Bool("volume", true, "cross-check the smallest distance against the whole-volume decode")
	startProf := profileFlags(fs)
	g := parse(fs, args)
	defer startProf()()
	model := func(p float64) spacetime.Model { return spacetime.Phenomenological(p, g.qOf(p), 0, 0) }
	t := table{corner: "p\\L", rowFmt: "%-8.3f", width: 16,
		head: func(l int) string {
			w, c, _ := g.win(l)
			return fmt.Sprintf("%d (T=%d W=%d/%d)", l, g.rounds(l), w, c)
		},
		cell: func(l int, p float64, seed uint64) float64 {
			w, c, _ := g.win(l)
			return must(stream.Memory(toric.Cached(l), g.rounds(l), model(p), w, c, spacetime.DecodeOptions{}, g.samples, seed)).FailRate()
		},
		crossing: "streaming sustained threshold (L=%d vs L=%d curves cross): p = q ≈ %.3f",
	}
	if *volume {
		l := g.ls[0]
		t.checkHead = fmt.Sprintf("%d volume", l)
		t.check = func(p float64, seed uint64) float64 {
			return must(stream.VolumeMemory(toric.Cached(l), g.rounds(l), model(p), toric.DecoderUnionFind, spacetime.DecodeOptions{}, g.samples, seed+2000)).FailRate()
		}
	}
	fmt.Println("E23: streaming windowed decoding — syndrome layers decode as they arrive through a")
	fmt.Printf("     sliding W-round window with a commit region; memory is O(L²·W), independent of T (seed %d)\n", g.seed)
	t.print(g.ls, g.ps, g.seed)
	fmt.Println("windowed accuracy matches the whole-volume decode at W ≥ 2L; the window never grows with T")
}

func cmdCircuit(args []string) {
	fs := newFlags("circuit",
		shared{"L", "4,8", "comma-separated code distances"},
		shared{"T", "L", "extraction rounds per shot: a number, or L for rounds = distance"},
		shared{"p", "0.002,0.004,0.006,0.008,0.01,0.012", "comma-separated uniform per-location error rates eps"},
		shared{"window", 0, "decode through the streaming pipeline with this sliding-window height (0: whole-volume decode)"},
		shared{"commit", 0, "rounds committed per slide when -window is set (0: half the window)"},
		shared{"samples", 4000, "Monte Carlo samples per point"},
		shared{"decoder", "uf", "decoder: uf (weighted union-find) or exact (circuit-metric blossom MWPM)"},
		shared{"seed", uint64(181), "base RNG seed for the sweep (each cell advances it)"})
	compare := fs.Bool("compare", true, "cross-check union-find against exact MWPM at the smallest distance")
	leak := fs.Float64("leak", 0, "per-gate leakage probability; leaked qubits are harvested as erasures")
	bias := fs.Float64("bias", 0, "noise-bias ratio η = pZ/(pX+pY) of each fault's Pauli draw (0: unbiased)")
	correlated := fs.Bool("correlated", false, "joint two-sector decode: reprice the dual sector from the committed primal correction")
	blind := fs.Bool("blind", false, "with -leak: discard the erasure side information (the control arm of the aware-vs-blind ablation)")
	schedule := fs.String("schedule", "default", "CNOT extraction schedule: default (bent hook pairs) or hookpar (parallel-last pairs)")
	startProf := profileFlags(fs)
	g := parse(fs, args)
	require(fs, check(isProb(*leak), "leak", *leak, "a probability in [0, 1]"))
	require(fs, check(*bias >= 0, "bias", *bias, "non-negative"))
	require(fs, check(*schedule == "default" || *schedule == "hookpar", "schedule", *schedule, "default or hookpar"))
	require(fs, check(!*blind || *leak > 0, "blind", *blind, "paired with -leak > 0 (it is the control arm of a leakage ablation)"))
	// The leakage, bias, correlated and schedule arms and the streaming
	// pipeline are measured with union-find only (the exact matcher
	// decodes closed volumes without erasure planes or decode options).
	needsOpts := *leak > 0 || *bias > 0 || *correlated || *schedule != "default"
	streaming := g.window > 0
	require(fs, check(g.kind == toric.DecoderUnionFind || !needsOpts && !streaming, "decoder", g.decoder,
		"uf with -leak/-bias/-correlated/-schedule or -window"))
	defer startProf()()
	opts := spacetime.DecodeOptions{ErasureAware: *leak > 0 && !*blind, Correlated: *correlated}
	run := func(l int, eps float64, k toric.DecoderKind, seed uint64) float64 {
		P := noise.Uniform(eps)
		P.Leak = *leak
		P.Bias = *bias
		var code surface.Code = toric.Cached(l)
		if *schedule == "hookpar" {
			code = toric.HookParallel(l)
		}
		if w, c, _ := g.win(l); w > 0 {
			return must(stream.Memory(code, g.rounds(l), spacetime.Circuit(P), w, c, opts, g.samples, seed)).FailRate()
		}
		return must(stream.VolumeMemory(code, g.rounds(l), spacetime.Circuit(P), k, opts, g.samples, seed)).FailRate()
	}
	t := table{corner: "eps\\L", rowFmt: "%-8.4f", width: 12,
		head:     func(l int) string { return fmt.Sprintf("%d (T=%d)", l, g.rounds(l)) },
		cell:     func(l int, eps float64, seed uint64) float64 { return run(l, eps, g.kind, seed) },
		crossing: "circuit-level sustained threshold (L=%d vs L=%d curves cross): eps ≈ %.4f",
	}
	if exactCheck(*compare && g.kind != toric.DecoderExact && !streaming && !needsOpts, g.ls[0]) {
		t.checkHead = fmt.Sprintf("%d exact", g.ls[0])
		t.check = func(eps float64, seed uint64) float64 { return run(g.ls[0], eps, toric.DecoderExact, seed+3000) }
	}
	fmt.Printf("E24: circuit-level syndrome extraction (%s decoder, seed %d): the full extraction circuit per round\n", g.decoder, g.seed)
	fmt.Println("     (ancilla per check, PrepZ/PrepX, 4 CNOTs, MeasZ/MeasX) with faults at every location;")
	fmt.Println("     mid-round CNOT faults decode over correlated diagonal space-time edges")
	if *leak > 0 {
		arm := "erasure-aware: leaked qubits decode as located faults"
		if *blind {
			arm = "erasure-BLIND control arm: leakage injected, side information discarded"
		}
		fmt.Printf("     leakage %g per gate — %s\n", *leak, arm)
	}
	if *bias > 0 {
		fmt.Printf("     biased noise η=%g (pZ/(pX+pY) of each fault's Pauli draw)\n", *bias)
	}
	if *correlated {
		fmt.Println("     correlated decode: dual sector repriced from the committed primal correction (Y components)")
	}
	if *schedule != "default" {
		fmt.Printf("     extraction schedule: %s (parallel-last hook pairs — axis-aligned hook defects)\n", *schedule)
	}
	if streaming {
		w, c, _ := g.win(g.ls[0])
		fmt.Printf("     streaming pipeline: W=%d sliding windows, commit %d\n", w, c)
	}
	if cross := t.print(g.ls, g.ps, g.seed); !math.IsNaN(cross) {
		fmt.Println("well below the phenomenological p = q ≈ 0.027: every location faults, and CNOTs correlate the defects")
	}
}

// cmdCodes sweeps the three surface-code families through the same
// circuit-level pipeline (one detector-graph contract, per-code CNOT
// schedules) and sets a concatenated-Steane row beside them: measured
// threshold, qubit overhead per distance, and decode speed in one
// table.
func cmdCodes(args []string) {
	fs := newFlags("codes",
		shared{"p", "0.003,0.005,0.007,0.009,0.011", "uniform per-location eps grid for the crossing"},
		shared{"samples", 1500, "Monte Carlo samples per grid point"},
		shared{"seed", uint64(271), "base RNG seed (each family offsets it by 100)"})
	d1f := fs.Int("d1", 3, "smaller code distance (threshold crossing)")
	d2f := fs.Int("d2", 5, "larger code distance (odd, so every family supports it)")
	steane := fs.Bool("steane", true, "include the concatenated-Steane comparison row")
	g := parse(fs, args)
	d1, d2 := *d1f, *d2f
	if d1 < 3 || d1%2 == 0 || d2 <= d1 || d2%2 == 0 {
		fmt.Fprintln(os.Stderr, "codes: distances must be odd with 3 <= d1 < d2 (the rotated family needs odd distances)")
		os.Exit(2)
	}
	ps := g.ps
	families := []struct {
		name string
		make func(d int) surface.Code
	}{
		{"toric", func(d int) surface.Code { return toric.Cached(d) }},
		{"planar", surface.Planar},
		{"rotated", surface.Rotated},
	}
	fmt.Printf("E27: surface-code families behind one detector-graph contract (seed %d) — every family runs\n", g.seed)
	fmt.Println("     its own circuit-level extraction schedule (T = d rounds) through the same")
	fmt.Println("     diagonal-edge decoding volume, union-find decoded; open boundaries ground on")
	fmt.Println("     the virtual node")
	fmt.Printf("\n%-10s", "eps\\fam")
	for _, f := range families {
		fmt.Printf(" %-12s %-12s", fmt.Sprintf("%s d=%d", f.name, d1), fmt.Sprintf("%s d=%d", f.name, d2))
	}
	fmt.Println()
	type row struct {
		name       string
		q1, q2     int // data qubits at d1, d2
		tot1, tot2 int // data + measure ancillas
		thresh     float64
		usPerShotR float64
	}
	rows := make([]row, len(families))
	curves := make([][2][]float64, len(families)) // [family][small/large][grid]
	for i, f := range families {
		c1, c2 := f.make(d1), f.make(d2)
		rows[i] = row{
			name: f.name,
			q1:   c1.Qubits(), q2: c2.Qubits(),
			tot1: c1.Qubits() + 2*c1.Checks(), tot2: c2.Qubits() + 2*c2.Checks(),
		}
		curves[i] = [2][]float64{make([]float64, len(ps)), make([]float64, len(ps))}
		var elapsed time.Duration
		seed := g.seed + uint64(100*i)
		for j, eps := range ps {
			m := spacetime.Circuit(noise.Uniform(eps))
			curves[i][0][j] = must(stream.VolumeMemory(c1, d1, m, toric.DecoderUnionFind, spacetime.DecodeOptions{}, g.samples, seed+uint64(2*j))).FailRate()
			t0 := time.Now()
			curves[i][1][j] = must(stream.VolumeMemory(c2, d2, m, toric.DecoderUnionFind, spacetime.DecodeOptions{}, g.samples, seed+uint64(2*j+1))).FailRate()
			elapsed += time.Since(t0)
		}
		rows[i].thresh = spacetime.CrossingEstimate(ps, curves[i][0], curves[i][1])
		rows[i].usPerShotR = float64(elapsed.Microseconds()) / float64(len(ps)*g.samples*d2)
	}
	for j, eps := range ps {
		fmt.Printf("%-10.4f", eps)
		for i := range families {
			fmt.Printf(" %-12.4e %-12.4e", curves[i][0][j], curves[i][1][j])
		}
		fmt.Println()
	}
	// Decode speed is wall-clock, so it goes to stderr: stdout stays a
	// function of the flags and the seed.
	fmt.Printf("\n%-10s %-14s %-14s %-12s\n",
		"family", fmt.Sprintf("qubits(d=%d)", d1), fmt.Sprintf("qubits(d=%d)", d2), "threshold")
	for _, r := range rows {
		th := "none on grid"
		if !math.IsNaN(r.thresh) {
			th = fmt.Sprintf("%.4f", r.thresh)
		}
		fmt.Printf("%-10s %-14s %-14s %-12s\n",
			r.name, fmt.Sprintf("%d (+%d anc)", r.q1, r.tot1-r.q1), fmt.Sprintf("%d (+%d anc)", r.q2, r.tot2-r.q2), th)
		fmt.Fprintf(os.Stderr, "codes: %s d=%d decodes at %.2f µs/shot·round\n", r.name, d2, r.usPerShotR)
	}
	if *steane {
		// The non-topological yardstick: Steane's [[7,1,3]] code under
		// concatenation (internal/code + internal/concat). Distance grows
		// as 3^level while qubits grow as 7^level, so the overhead per
		// distance is d^(ln7/ln3) ≈ d^1.77 — polynomially worse than any
		// surface family — but the threshold is per gate on a
		// fully-connected machine, not per location on a 2D patch.
		st := code.Steane()
		flow := concat.PaperFlow()
		lv1 := concat.BlockSize(1)
		lv2 := concat.BlockSize(2)
		fmt.Printf("%-10s %-14s %-14s %-12s\n",
			"steane^L", fmt.Sprintf("%d (d=3)", lv1), fmt.Sprintf("%d (d=9)", lv2), fmt.Sprintf("%.4f", flow.Threshold()))
		fmt.Printf("\nconcatenated [[%d,%d,3]] Steane: distance 3^level vs 7^level qubits — overhead\n",
			st.N, st.K)
		fmt.Printf("d^1.77 per logical qubit against the planar d^2/rotated d^2 patch; its %.3g\n", flow.Threshold())
		fmt.Println("threshold is the Eq. 33 per-block-cycle flow value, not a per-location rate")
	}
	fmt.Println("\nqubit overhead per distance: toric 2d² data on a torus, planar d²+(d−1)² on a")
	fmt.Println("patch, rotated d² — the rotated code halves the planar qubit bill at equal d")
}

// serveSessionCfg builds the session configuration the serve/sessions
// commands share: model is circuit or phenom.
func serveSessionCfg(model string, l, lanes int, p float64) server.SessionConfig {
	if model == "circuit" {
		return server.CircuitLevelCode(toric.Cached(l), lanes, noise.Uniform(p))
	}
	return server.PhenomenologicalCode(toric.Cached(l), lanes, p, p)
}

// serveFeed builds the matching syndrome-layer source.
func serveFeed(cfg server.SessionConfig, p float64, seed uint64) spacetime.LayerFeed {
	smp := frame.NewAggregateSampler(seed, 5)
	if cfg.WD > 0 {
		return surface.NewCircuitSource(cfg.Code, noise.Uniform(p), cfg.Lanes, smp)
	}
	return surface.NewLayerSource(cfg.Code, p, p, cfg.Lanes, smp)
}

func cmdServe(args []string) {
	fs := newFlags("serve",
		shared{"L", 8, "code distance"},
		shared{"T", 128, "syndrome rounds streamed per session"},
		shared{"p", 0.003, "error rate: per-location eps (circuit) or p = q (phenom)"})
	nSessions := fs.Int("sessions", 16, "concurrent logical-qubit sessions")
	lanes := fs.Int("lanes", 64, "Monte Carlo lanes per session (64 shots per machine word)")
	model := fs.String("model", "circuit", "noise model: circuit (uniform per-location eps) or phenom (p = q)")
	workers := fs.Int("workers", 0, "decode workers in the shared pool (0: GOMAXPROCS)")
	depth := fs.Int("queue", 16, "per-session ingest queue depth in rounds")
	startProf := profileFlags(fs)
	g := parse(fs, args)
	require(fs, check(*nSessions >= 1, "sessions", *nSessions, "at least 1"))
	require(fs, check(*lanes >= 1, "lanes", *lanes, "at least 1"))
	require(fs, check(*model == "circuit" || *model == "phenom", "model", *model, "circuit or phenom"))
	require(fs, check(*workers >= 0, "workers", *workers, "0 (GOMAXPROCS) or a positive count"))
	require(fs, check(*depth >= 1, "queue", *depth, "at least 1"))
	defer startProf()()
	size, p := g.ls[0], g.ps[0]
	rounds := g.rounds(size)
	cfg := serveSessionCfg(*model, size, *lanes, p)
	srv := server.New(server.Config{Workers: *workers, QueueDepth: *depth})
	fmt.Printf("E25: decode server — %d concurrent %s sessions, L=%d, %d lanes, %d rounds each\n",
		*nSessions, *model, size, *lanes, rounds)

	handles := make([]*server.Session, *nSessions)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *nSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := srv.Open(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "serve: open session %d: %v\n", i, err)
				os.Exit(2)
			}
			handles[i] = s
			feed := serveFeed(cfg, p, 9000+uint64(i))
			nc := cfg.Code.Checks()
			layerX := bits.NewVecs(nc, *lanes)
			layerZ := bits.NewVecs(nc, *lanes)
			for r := 0; r < rounds; r++ {
				feed.NextLayers(layerX, layerZ)
				if err := s.Submit(layerX, layerZ); err != nil {
					fmt.Fprintf(os.Stderr, "serve: session %d round %d: %v\n", i, r, err)
					os.Exit(2)
				}
			}
			feed.CloseLayers(layerX, layerZ)
			if err := s.CloseWith(layerX, layerZ); err != nil {
				fmt.Fprintf(os.Stderr, "serve: close session %d: %v\n", i, err)
				os.Exit(2)
			}
			if _, err := s.Wait(); err != nil {
				fmt.Fprintf(os.Stderr, "serve: session %d: %v\n", i, err)
				os.Exit(2)
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	srv.Shutdown()

	fmt.Printf("\n%-5s %-8s %-10s %-9s %-8s %-10s %-10s %-10s %-10s\n",
		"id", "window", "committed", "defects", "density", "p50", "p90", "p99", "max")
	var agg []server.HistSnapshot
	for _, s := range handles {
		st := s.Stats()
		agg = append(agg, st.Latency)
		fmt.Printf("%-5d %-8d %-10d %-9d %-8.4f %-10v %-10v %-10v %-10v\n",
			st.ID, st.Window, st.Committed, st.Defects, st.DefectDensity,
			st.Latency.P50, st.Latency.P90, st.Latency.P99, st.Latency.Max)
	}
	total := *nSessions * rounds
	fmt.Printf("\nsustained throughput: %d rounds across %d sessions in %v = %.0f rounds/s (%.2e lane-rounds/s)\n",
		total, *nSessions, wall.Round(time.Millisecond), float64(total)/wall.Seconds(),
		float64(total)*float64(*lanes)/wall.Seconds())

	// Aggregate commit-latency histogram (enqueue → commit, all sessions).
	merged := map[time.Duration]uint64{}
	var grand uint64
	for _, h := range agg {
		for _, b := range h.Buckets {
			merged[b.UpTo] += b.Count
			grand += b.Count
		}
	}
	ups := make([]time.Duration, 0, len(merged))
	for up := range merged {
		ups = append(ups, up)
	}
	sort.Slice(ups, func(i, j int) bool { return ups[i] < ups[j] })
	fmt.Println("\naggregate commit-latency histogram:")
	for _, up := range ups {
		n := merged[up]
		bar := strings.Repeat("#", int(1+59*n/grand))
		fmt.Printf("  ≤ %-10v %8d  %s\n", up, n, bar)
	}
	fmt.Println("\ncommit latency is the real-time figure of merit: the decoder must keep")
	fmt.Println("pace with syndrome extraction for every logical qubit simultaneously")
}

func cmdSessions(args []string) {
	fs := flag.NewFlagSet("sessions", flag.ExitOnError)
	churners := fs.Int("sessions", 6, "concurrent session slots churning open/stream/close")
	workers := fs.Int("workers", 0, "decode workers in the shared pool (0: GOMAXPROCS)")
	snaps := fs.Int("snapshots", 3, "how many live snapshots to print")
	parse(fs, args)
	require(fs, check(*churners >= 1, "sessions", *churners, "at least 1"))
	require(fs, check(*workers >= 0, "workers", *workers, "0 (GOMAXPROCS) or a positive count"))
	require(fs, check(*snaps >= 1, "snapshots", *snaps, "at least 1"))
	srv := server.New(server.Config{Workers: *workers})
	fmt.Println("E25: decode-server observability — sessions opening, streaming, and closing")
	fmt.Println("     while Snapshot reads their stats without disturbing the pipelines")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < *churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for it := 0; ; it++ {
				select {
				case <-stop:
					return
				default:
				}
				model := "phenom"
				if (c+it)%2 == 0 {
					model = "circuit"
				}
				p := 0.002 + 0.004*float64(c%3)
				if model == "phenom" {
					p = 0.01 + 0.01*float64(c%3)
				}
				cfg := serveSessionCfg(model, 4+2*(c%2), 64, p)
				s, err := srv.Open(cfg)
				if err != nil {
					return // draining
				}
				feed := serveFeed(cfg, p, 9500+uint64(16*c+it))
				nc := cfg.Code.Checks()
				layerX := bits.NewVecs(nc, cfg.Lanes)
				layerZ := bits.NewVecs(nc, cfg.Lanes)
				for r := 0; r < 40; r++ {
					feed.NextLayers(layerX, layerZ)
					if s.Submit(layerX, layerZ) != nil {
						return
					}
					time.Sleep(2 * time.Millisecond) // a quantum clock, not a tight loop
				}
				feed.CloseLayers(layerX, layerZ)
				if s.CloseWith(layerX, layerZ) != nil {
					return
				}
				if _, err := s.Wait(); err != nil {
					return
				}
			}
		}(c)
	}
	for i := 0; i < *snaps; i++ {
		time.Sleep(60 * time.Millisecond)
		stats := srv.Snapshot()
		fmt.Printf("\nsnapshot %d: %d open sessions, %d window shapes interned\n", i+1, len(stats), stream.Shapes())
		fmt.Printf("  %-4s %-8s %-4s %-8s %-8s %-10s %-9s %-10s\n",
			"id", "model", "L", "window", "rounds", "committed", "density", "p50 lat")
		for _, st := range stats {
			model := "phenom"
			if st.Circuit {
				model = "circuit"
			}
			fmt.Printf("  %-4d %-8s %-4d %-8d %-8d %-10d %-9.4f %-10v\n",
				st.ID, model, st.L, st.Window, st.Rounds, st.Committed, st.DefectDensity, st.Latency.P50)
		}
	}
	close(stop)
	wg.Wait()
	srv.Shutdown()
	fmt.Printf("\nchurn stopped, server drained: %d sessions remain open\n", len(srv.Snapshot()))
}

// must unwraps a memory experiment: its constructor errors (a code the
// decoder cannot price, an empty horizon) exit 2 with the message.
func must[R any](r R, err error) R {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	return r
}

func cmdThermal(args []string) {
	fs := newFlags("thermal",
		shared{"samples", 20000, "samples per point"},
		shared{"L", 7, "lattice size"},
		shared{"decoder", "exact", "decoder: exact or uf"},
		shared{"seed", uint64(93), "base RNG seed (each Δ/T row advances it)"})
	g := parse(fs, args)
	l := g.ls[0]
	fmt.Printf("E18: thermal anyon plasma on L=%d (§7.1, seed %d): flips at p0·e^{-Δ/T}\n", l, g.seed)
	fmt.Printf("%-8s %-14s %-14s\n", "Δ/T", "flip prob", "logical fail")
	for i, dt := range []float64{1, 2, 3, 4, 5, 6} {
		r := must(toric.ThermalMemory(l, 0.5, dt, g.kind, g.samples, g.seed+uint64(i)))
		fmt.Printf("%-8.1f %-14.4e %-14.4e\n", dt, r.FlipProb, r.FailRate())
	}
}

func cmdInterferometer(args []string) {
	fs := flag.NewFlagSet("interferometer", flag.ExitOnError)
	eta := fs.Float64("eta", 0.2, "per-pass readout error")
	parse(fs, args)
	require(fs, check(*eta >= 0 && *eta <= 1, "eta", *eta, "a probability in [0, 1]"))
	fmt.Printf("E19: interferometric flux measurement, per-pass error η=%.2f (Figs. 18/22)\n", *eta)
	fmt.Printf("%-8s %-16s %-16s\n", "passes", "analytic err", "Monte Carlo")
	rng := rand.New(rand.NewPCG(95, 96))
	for _, n := range []int{1, 3, 7, 15, 31, 63} {
		an := anyon.InterferometerConfidence(*eta, n)
		wrong := 0
		const trials = 100000
		for i := 0; i < trials; i++ {
			if anyon.NoisyFluxMeasurement(1, *eta, n, rng) {
				wrong++
			}
		}
		fmt.Printf("%-8d %-16.4e %-16.4e\n", n, an, float64(wrong)/trials)
	}
	fmt.Println("repetition drives the readout error down exponentially — measurement is fault tolerant")
}

func cmdAnyon(args []string) {
	fs := flag.NewFlagSet("anyon", flag.ExitOnError)
	parse(fs, args)
	enc := anyon.NewA5Encoding()
	fmt.Println("E20: nonabelian fluxon logic over A5 (§7.3-§7.4)")
	fmt.Printf("computational fluxes: u0=%v u1=%v (Eq. 45); NOT conjugator v=%v\n", enc.U0, enc.U1, enc.V)
	fmt.Printf("group: |A5|=%d, perfect=%v, solvable=%v (universality needs nonsolvability)\n",
		enc.G.Order(), enc.G.IsPerfect(), enc.G.IsSolvable())
	w, err := enc.FindToffoliWitness()
	if err != nil {
		fmt.Println("witness search failed:", err)
		return
	}
	fmt.Printf("Toffoli word found: %d elementary pull-throughs (ref. 65 quotes 16)\n", w.PullCost())
	rng := rand.New(rand.NewPCG(97, 98))
	fmt.Println("truth table (a b c -> a b c⊕ab):")
	for in := 0; in < 8; in++ {
		r := anyon.NewRegister(enc.G, 3, enc.U0)
		for q := 0; q < 3; q++ {
			if in>>uint(q)&1 == 1 {
				enc.NOT(r, q)
			}
		}
		enc.Toffoli(r, w, 0, 1, 2)
		out := [3]int{}
		for q := 0; q < 3; q++ {
			out[q], _ = enc.Bit(r.MeasureFlux(q, rng))
		}
		fmt.Printf("  %d%d%d -> %d%d%d\n", in&1, in>>1&1, in>>2&1, out[0], out[1], out[2])
	}
}
