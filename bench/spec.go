package main

import (
	"fmt"
	"sync"
	"time"
)

// metricDef names one reported figure. BENCHMARK.json carries the same
// lists; smoke_test.go keeps the two in step.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what the two users see, measured with tracing off and
// reported by every workload. reaction is, per operation, the time from
// the moment its last input was due to the moment its result was back:
// a session's frames (from the due time of its closing tick on
// fleet-paced, from the start of the Finish write on wire-flood) or a
// Monte Carlo call's result.
//
// The driver's contract wants every one of these from every workload,
// never zero, with one bound per metric of at most 25 % that the spread
// of ten runs (interquartile range over median) stays within. So the
// bounds are those of the noisiest workload on the reference box, a
// 2-vCPU VM whose speed drifts by 10-20 % and more over minutes, not the
// benchmark's resolution (README.md has the sweeps), and the tail that
// is held to a bound is the upper quartile: it moves with the median,
// while the box's own stalls move a p99 by a factor of five.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"shot_rounds_per_s", "1/s", "higher", 0.20},
	{"cpu_us_per_shot_round", "us", "lower", 0.25},
	{"reaction_p50_ms", "ms", "lower", 0.25},
	{"reaction_p75_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// beside is what only some workloads define. The untraced run of such a
// workload reports it next to the end-to-end metrics, printed and kept
// in the results file, but it is no part of BENCHMARK.json and has no
// bound: reaction_p99_ms is the 99th percentile of the whole run on the
// serving workloads (a thousand sessions give it ten beyond), which the
// box's stalls move too far for any bound; logical_fail_rate is 0 on
// the Monte Carlo workloads and takes one of a few dozen values on a
// pool of 4096 recorded shots; keep_awake_cpus is the condition
// fleet-paced ran under (awake_linux.go).
var beside = []metricDef{
	{"reaction_p99_ms", "ms", "lower", 0},
	{"logical_fail_rate", "frac", "lower", 0},
	{"keep_awake_cpus", "count", "higher", 0},
}

// perLayer is what the traced run attributes to single layers (the
// repo's packages, plus the wire framing, the load generator and the Go
// runtime). A metric of a layer the workload does not run reads 0.
var perLayer = []metricDef{
	{"surface.source_circuit_ns_per_shot_round", "ns", "lower", 0},
	{"surface.source_phenom_ns_per_shot_round", "ns", "lower", 0},
	{"surface.source_share", "frac", "lower", 0},
	{"surface.logical_ns_per_shot", "ns", "lower", 0},
	{"frame.bernoulli_ns_per_kbit", "ns", "lower", 0},
	{"frame.onecore_shot_rounds_per_s", "1/s", "higher", 0},
	{"frame.parallel_eff", "frac", "higher", 0},
	{"bits.transpose_ns_per_window", "ns", "lower", 0},
	{"bits.support_ns_per_lane_window", "ns", "lower", 0},
	{"decoder.uf_decode_us_per_shot_window", "us", "lower", 0},
	{"decoder.uf_defects_per_shot_window", "count", "lower", 0},
	{"decoder.uf_growth_sweeps_per_shot", "count", "lower", 0},
	{"decoder.uf_corr_edges_per_shot", "count", "lower", 0},
	{"decoder.pool_roundtrip_us_per_batch", "us", "lower", 0},
	{"decoder.pool_dispatch_overhead_us", "us", "lower", 0},
	{"stream.push_fill_ns_per_shot_round", "ns", "lower", 0},
	{"stream.slide_us_per_shot", "us", "lower", 0},
	{"stream.finish_us_per_shot", "us", "lower", 0},
	{"stream.slide_share", "frac", "lower", 0},
	{"stream.redecode_ratio", "ratio", "lower", 0},
	{"stream.slide_vs_replay_ratio", "ratio", "lower", 0},
	{"stream.footprint_bytes_per_lane", "bytes", "lower", 0},
	{"stream.window_build_ms", "ms", "lower", 0},
	{"server.open_first_ms", "ms", "lower", 0},
	{"server.open_warm_us", "us", "lower", 0},
	{"server.submit_p50_us", "us", "lower", 0},
	{"server.submit_p99_us", "us", "lower", 0},
	{"server.submit_busy_frac", "frac", "lower", 0},
	{"server.commit_lag_p50_ms", "ms", "lower", 0},
	{"server.commit_lag_p99_ms", "ms", "lower", 0},
	{"server.inflight_rounds_mean", "count", "lower", 0},
	{"server.inflight_rounds_max", "count", "lower", 0},
	{"server.drain_p50_ms", "ms", "lower", 0},
	{"server.slides_per_session", "count", "lower", 0},
	{"server.defect_density", "frac", "lower", 0},
	{"server.overflows", "count", "lower", 0},
	{"server.hist_p50_ms", "ms", "lower", 0},
	{"server.hist_p99_ms", "ms", "lower", 0},
	{"server.overhead_frac", "frac", "lower", 0},
	{"wire.dial_open_us", "us", "lower", 0},
	{"wire.round_write_p50_us", "us", "lower", 0},
	{"wire.round_write_p99_us", "us", "lower", 0},
	{"wire.finish_p50_ms", "ms", "lower", 0},
	{"wire.bytes_per_round", "bytes", "lower", 0},
	{"wire.server_reads_per_round", "count", "lower", 0},
	{"wire.server_writes_per_session", "count", "lower", 0},
	{"wire.overhead_frac", "frac", "lower", 0},
	{"loadgen.late_p50_us", "us", "lower", 0},
	{"loadgen.late_p99_us", "us", "lower", 0},
	{"loadgen.late_over_period_frac", "frac", "lower", 0},
	{"runtime.allocs_per_round", "count", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_total_ms", "ms", "lower", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
	{"trace.chunk_coverage_frac", "frac", "higher", 0},
	{"quality.logical_fail_rate", "frac", "lower", 0},
}

// runConfig is one invocation of one workload.
type runConfig struct {
	Seed    uint64
	Seconds float64 // length of the timed section
	Trace   bool
	Tiny    bool   // smoke-test sizes: same code paths, a fraction of the work
	OutDir  string // where a traced run writes trace.json ("" = nowhere)
}

// reactionMetrics reports the median, the upper quartile and, where a
// thousand operations support it, the 99th percentile of the
// per-operation reaction times (ms). A run too short for an upper
// quartile with ten samples beyond it reports the median in its place
// and says so.
func reactionMetrics(r *report, reactionMs []float64) {
	all := sortedCopy(reactionMs)
	r.Metrics["reaction_p50_ms"] = median(all)
	tail, err := percentile(all, 75)
	if err != nil {
		tail = median(all)
		r.notef("reaction_p75_ms: %v; the median stands in", err)
	}
	r.Metrics["reaction_p75_ms"] = tail
	r.setPercentile("reaction_p99_ms", all, 99, 1)
	r.notef("reaction samples %d, max %.4g ms", len(all), all[len(all)-1])
}

// report is what one run of one workload produces.
type report struct {
	Workload  string
	Correct   bool // every whole-run output check held
	Attempted int  // ops
	Failed    int  // ops_failed
	Metrics   map[string]float64
	Notes     []string // sample counts, min/max, failed checks

	mu sync.Mutex // load-generator goroutines report failures concurrently
}

func newReport(name string) *report {
	return &report{Workload: name, Correct: true, Metrics: make(map[string]float64)}
}

// fail records a whole-run check that did not hold.
func (r *report) fail(format string, args ...any) {
	r.notef("CHECK FAILED: "+format, args...)
	r.mu.Lock()
	r.Correct = false
	r.mu.Unlock()
}

func (r *report) notef(format string, args ...any) {
	r.mu.Lock()
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// setPercentile reports scale x the p-th percentile of sorted under name
// when the sample supports it; otherwise the metric is left out (and
// reads 0).
func (r *report) setPercentile(name string, sorted []float64, p, scale float64) {
	if v, err := percentile(sorted, p); err == nil {
		r.Metrics[name] = scale * v
	}
}

// workload is one set of inputs the benchmark runs. setup builds
// everything the timed section needs and is itself timed (setup_s);
// measure runs the timed section untraced and trace the traced one.
type workload struct {
	Name, Why string
	setup     func(cfg runConfig) (env, error)
}

// env is a workload after set-up.
type env interface {
	measure(cfg runConfig, r *report)
	trace(cfg runConfig, tr *tracer, r *report)
	close()
}

var workloads = []workload{
	{
		Name:  "mc-circuit",
		Why:   "researcher's headline: circuit-level toric L=16 at eps=0.003, so extraction sampling, pivot and union-find growth all do real work",
		setup: func(cfg runConfig) (env, error) { return setupMC(mcCircuit, cfg) },
	},
	{
		Name:  "mc-quiet",
		Why:   "same stream layer in the quiet regime (p=q=0.0005, T=256): silent-window skip carries the load, growth does almost nothing",
		setup: func(cfg runConfig) (env, error) { return setupMC(mcQuiet, cfg) },
	},
	{
		Name:  "wire-flood",
		Why:   "tenant path at capacity with the wire included: recorded toric L=8 sessions over loopback TCP, closed loop, one connection per core",
		setup: func(cfg runConfig) (env, error) { return setupWire(cfg) },
	},
	{
		Name:  "fleet-paced",
		Why:   "only open-loop load: 8 rotated d=9 tenants ticked at a fixed rate below capacity with session churn, where reaction latency means something",
		setup: func(cfg runConfig) (env, error) { return setupFleet(cfg) },
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runWorkload sets a workload up and runs its timed section, traced or
// not. The set-up time is returned separately: the caller decides how
// many cold set-ups go into setup_s.
func runWorkload(w *workload, cfg runConfig) (*report, time.Duration, error) {
	r := newReport(w.Name)
	t0 := time.Now()
	e, err := w.setup(cfg)
	setup := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	defer e.close()
	if cfg.Trace {
		tr := newTracer()
		e.trace(cfg, tr, r)
		if cfg.OutDir != "" {
			if err := writeTrace(tr, cfg, w.Name); err != nil {
				return nil, 0, err
			}
		}
		for _, m := range perLayer {
			if _, ok := r.Metrics[m.Name]; !ok {
				r.Metrics[m.Name] = 0
			}
		}
	} else {
		e.measure(cfg, r)
		r.Metrics["peak_rss_mb"] = peakRSSMB()
	}
	return r, setup, nil
}
