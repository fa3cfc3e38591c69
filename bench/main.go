// Command bench is the repository's benchmark: four workloads, the
// end-to-end metrics its two users see (a tenant streaming syndrome
// rounds to the decode server, a researcher running streaming-memory
// Monte Carlo) and, from a separate traced run, per-layer metrics taken
// from outside by timing calls into each layer's public functions.
// README.md has the tables; BENCHMARK.json the contract.
//
//	go run ./bench                       every workload, untraced
//	go run ./bench -trace 1              ... then every workload traced
//	go run ./bench -workload W -seed S -seconds N -trace 0|1
//	go run ./bench -aa                   the untraced set twice, compared
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 20

// coldSetups is how many cold set-ups, each in a process of its own,
// setup_s is the median of.
const coldSetups = 5

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is what the results file keeps of one run: the driver's result
// and, from an untraced run, the figures reported beside it (spec.go).
// A single-workload run prints the two as its last two lines.
type record struct {
	result
	Beside map[string]metricValue `json:"beside"`
}

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	out       string
	aa        bool
	setupOnly bool
	keepAwake bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this workload only, in this process (default: every workload, each in a child process)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the workload inputs")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of each timed section")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run, reports the per-layer metrics and writes bench/out/trace-<workload>.json")
	flag.StringVar(&o.out, "out", filepath.Join("bench", "out", "results.json"), "where a run of every workload writes its results")
	flag.BoolVar(&o.aa, "aa", false, "run the untraced set twice; exit 1 if an end-to-end metric differs by more than its bound")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "set the workload up, print the seconds it took, exit (used for setup_s)")
	flag.BoolVar(&o.keepAwake, "keep-awake", false, "spin at idle priority until standard input closes (child of fleet-paced, see awake_linux.go)")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 || o.trace < 0 || o.trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if o.keepAwake {
		keepAwake()
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.workload == "" {
		if o.aa {
			return runAA(o)
		}
		_, err := runAll(o, true)
		return err
	}
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	cfg := runConfig{Seed: o.seed, Seconds: o.seconds, Trace: o.trace == 1, OutDir: filepath.Join("bench", "out")}
	if o.setupOnly {
		t0 := time.Now()
		e, err := w.setup(cfg)
		if err != nil {
			return err
		}
		fmt.Println(time.Since(t0).Seconds())
		e.close()
		return nil
	}
	rec, err := runOne(w, cfg, coldSetups, os.Stdout)
	if err != nil {
		return err
	}
	for _, v := range []any{map[string]any{"beside": rec.Beside}, rec.result} {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// runOne runs one workload in this process and prints every metric by
// name. setup_s is the median of `setups` cold set-ups: this process's
// own and the rest in child processes, because a second set-up in the
// same process finds the program's caches warm.
func runOne(w *workload, cfg runConfig, setups int, out io.Writer) (record, error) {
	r, setup, err := runWorkload(w, cfg)
	if err != nil {
		return record{}, err
	}
	defs := perLayer
	if !cfg.Trace {
		defs = endToEnd
		cold := []float64{setup.Seconds()}
		for i := 1; i < setups; i++ {
			s, err := childSetup(w.Name, cfg.Seed)
			if err != nil {
				return record{}, err
			}
			cold = append(cold, s)
		}
		r.Metrics["setup_s"] = median(cold)
		r.notef("set-ups %.4g s", cold)
	}
	res := record{
		result: result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]metricValue)},
		Beside: make(map[string]metricValue),
	}
	fmt.Fprintf(out, "# %s seed %d trace %v: ops %d, ops_failed %d, correct %v\n", w.Name, cfg.Seed, cfg.Trace, r.Attempted, r.Failed, r.Correct)
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return record{}, fmt.Errorf("%s: metric %s missing or not finite (%v)", w.Name, d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
		fmt.Fprintf(out, "%-44s %14.6g %s\n", d.Name, v, d.Unit)
	}
	for _, d := range beside {
		if v, ok := r.Metrics[d.Name]; ok && !cfg.Trace {
			res.Beside[d.Name] = metricValue{v, d.Unit}
			fmt.Fprintf(out, "%-44s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintln(out, "#", n)
	}
	if res.Attempted < 1 {
		return record{}, fmt.Errorf("%s: no operation attempted", w.Name)
	}
	return res, nil
}

// self re-executes this binary with args and returns its standard
// output; standard error passes through.
func self(args ...string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	return cmd.Output()
}

func childSetup(workload string, seed uint64) (float64, error) {
	out, err := self("-setup-only", "-workload", workload, "-seed", strconv.FormatUint(seed, 10))
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// resultSet is what a run of every workload writes to -out.
type resultSet struct {
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	GoMaxProcs int               `json:"gomaxprocs"`
	NProc      int               `json:"nproc"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
	UnixTime   int64             `json:"unix_time"`
	Untraced   map[string]record `json:"untraced"`
	Traced     map[string]record `json:"traced,omitempty"`
}

// commit returns the revision under test, "-dirty" appended when the
// work tree differs from it: the one the toolchain stamped into the
// binary, or, since `go run` stamps none, the one git reports for the
// current directory. Outside a git work tree it is "unknown".
func commit() string {
	rev, dirty := "", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if rev == "" {
		head, err := exec.Command("git", "rev-parse", "HEAD").Output()
		if err != nil {
			return "unknown"
		}
		rev = strings.TrimSpace(string(head))
		status, err := exec.Command("git", "status", "--porcelain").Output()
		dirty = err != nil || len(status) > 0
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// runAll runs every workload, each in a child process of its own so
// that memory, collector state and set-up do not leak from one workload
// into the next, and writes the results.
func runAll(o options, write bool) (resultSet, error) {
	set := resultSet{
		Seed: o.seed, Seconds: o.seconds,
		GoMaxProcs: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: commit(), UnixTime: time.Now().Unix(),
		Untraced: make(map[string]record),
	}
	fmt.Printf("# seed %d, %g s per timed section, GOMAXPROCS %d of %d CPUs, %s, commit %s\n",
		set.Seed, set.Seconds, set.GoMaxProcs, set.NProc, set.GoVersion, set.Commit)
	passes := []map[string]record{set.Untraced}
	if o.trace == 1 {
		set.Traced = make(map[string]record)
		passes = append(passes, set.Traced)
	}
	bad := false
	for trace, into := range passes {
		for _, w := range workloads {
			out, err := self("-workload", w.Name, "-seed", strconv.FormatUint(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
			if err != nil {
				return set, fmt.Errorf("%s: %w", w.Name, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			n := len(lines) - 2
			var rec record
			if n < 0 || json.Unmarshal(lines[n], &rec) != nil || json.Unmarshal(lines[n+1], &rec.result) != nil {
				return set, fmt.Errorf("%s: the last two lines are not a result", w.Name)
			}
			os.Stdout.Write(bytes.Join(lines[:n], []byte("\n")))
			fmt.Println()
			into[w.Name] = rec
			bad = bad || !rec.Correct || rec.Failed > 0
		}
	}
	if write {
		data, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			return set, err
		}
		if err := os.MkdirAll(filepath.Dir(o.out), 0o755); err != nil {
			return set, err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return set, err
		}
		fmt.Println("# results written to", o.out)
	}
	if bad {
		return set, errors.New("an output check failed or an operation failed; see the lines marked CHECK FAILED")
	}
	return set, nil
}

// runAA runs the untraced set twice on the same commit and seed and
// holds the benchmark to its own bounds: two runs of one program may
// not differ by more than the regression a bound is meant to catch.
func runAA(o options) error {
	o.trace = 0
	a, err := runAll(o, false)
	if err != nil {
		return err
	}
	b, err := runAll(o, true)
	if err != nil {
		return err
	}
	over := 0
	fmt.Printf("%-12s %-24s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "worse", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			x, y := a.Untraced[w.Name].Metrics[d.Name].Value, b.Untraced[w.Name].Metrics[d.Name].Value
			worse := (y - x) / x
			if d.Better == "higher" {
				worse = (x - y) / x
			}
			mark := ""
			if math.Abs(worse) > d.Bound {
				mark = "  OVER"
				over++
			}
			fmt.Printf("%-12s %-24s %14.6g %14.6g %+7.1f%% %5.0f%%%s\n", w.Name, d.Name, x, y, 100*worse, 100*d.Bound, mark)
		}
		// Exact for a seed (the same frames came back both times) and
		// for a machine (the same CPUs were kept awake).
		for _, name := range []string{"logical_fail_rate", "keep_awake_cpus"} {
			if x, y := a.Untraced[w.Name].Beside[name], b.Untraced[w.Name].Beside[name]; x != y {
				fmt.Printf("%-12s %-24s %14.6g %14.6g  DIFFERS\n", w.Name, name, x.Value, y.Value)
				over++
			}
		}
	}
	if over > 0 {
		return fmt.Errorf("%d metrics differ between two runs of the same commit by more than their bound: lengthen the run", over)
	}
	return nil
}

// writeTrace dumps a traced run's spans next to the results.
func writeTrace(tr *tracer, cfg runConfig, workload string) error {
	return tr.write(filepath.Join(cfg.OutDir, "trace-"+workload+".json"), map[string]any{
		"workload": workload,
		"seed":     cfg.Seed,
		"unit":     "ns since the start of the traced run",
	})
}
