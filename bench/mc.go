package main

import (
	"runtime"
	"sync/atomic"
	"time"
)

// mcSpec is a closed-loop Monte Carlo workload: the researcher calls
// the one-call memory entry point again and again, each call a batch
// job of CallShots shots seeded seed+k. Sizes are frozen here; only the
// number of calls follows -seconds.
type mcSpec struct {
	Model     func() model
	Rounds    int
	CallShots int // per timed call: a whole number of 128-lane chunks per core
	WarmShots int
	// TracedShotsPerSecond sizes the traced run's passes (about a fifth
	// of -seconds each at the reference box's rate).
	TracedShotsPerSecond float64
}

const chunkLanes = 128 // frame.ForEachChunk's fixed chunk width: one op

var mcCircuit = mcSpec{
	Model:                func() model { return model{Code: toricCode(16), Circuit: true, Eps: 0.003} },
	Rounds:               64,
	CallShots:            512,
	WarmShots:            1024,
	TracedShotsPerSecond: 400,
}

var mcQuiet = mcSpec{
	Model:                func() model { return model{Code: toricCode(16), P: 0.0005, Q: 0.0005} },
	Rounds:               256,
	CallShots:            1536,
	WarmShots:            4096,
	TracedShotsPerSecond: 1200,
}

// tiny shrinks a spec to smoke-test size: the same noise on toric L=4.
func (s mcSpec) tiny() mcSpec {
	m := s.Model()
	m.Code = toricCode(4)
	s.Model = func() model { return m }
	s.Rounds = 24
	s.CallShots = 256
	s.WarmShots = 128
	s.TracedShotsPerSecond = 2000
	return s
}

type mcEnv struct {
	spec        mcSpec
	model       model
	windowBuild time.Duration
}

func setupMC(spec mcSpec, cfg runConfig) (env, error) {
	if cfg.Tiny {
		spec = spec.tiny()
	}
	e := &mcEnv{spec: spec, model: spec.Model()}
	t0 := time.Now()
	sess, err := e.model.newStreamSession(spec.Rounds)
	if err != nil {
		return nil, err
	}
	e.windowBuild = time.Since(t0)
	sess.Close()
	// One small pass fills the process-wide caches (closing volumes,
	// decoder scratch) the first call would otherwise pay for.
	if _, err := e.model.memory(spec.Rounds, spec.WarmShots, cfg.Seed^0x5eed); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *mcEnv) close() {}

// measure calls the entry point until the time is up.
func (e *mcEnv) measure(cfg runConfig, r *report) {
	spec := e.spec
	chunksPerCall := (spec.CallShots + chunkLanes - 1) / chunkLanes
	work := float64(spec.CallShots * spec.Rounds)
	var latency, rates []float64
	cpu0, t0 := cpuTime(), time.Now()
	for k := 0; time.Since(t0).Seconds() < cfg.Seconds || k == 0; k++ {
		c0 := time.Now()
		res, err := e.model.memory(spec.Rounds, spec.CallShots, cfg.Seed+uint64(k))
		d := time.Since(c0).Seconds()
		r.Attempted += chunksPerCall
		if err != nil || res.Samples != spec.CallShots {
			r.Failed += chunksPerCall
			r.notef("call %d: samples %d of %d, err %v", k, res.Samples, spec.CallShots, err)
			continue
		}
		latency = append(latency, d*1e3)
		rates = append(rates, work/d)
	}
	cpu := cpuTime() - cpu0
	if len(rates) == 0 {
		r.fail("no call succeeded")
		return
	}
	sorted := sortedCopy(rates)
	r.Metrics["shot_rounds_per_s"] = median(rates)
	r.Metrics["cpu_us_per_shot_round"] = float64(cpu.Microseconds()) / (float64(len(rates)) * work)
	r.notef("calls %d, call rate min %.4g max %.4g shot-rounds/s", len(rates), sorted[0], sorted[len(sorted)-1])
	reactionMetrics(r, latency)
}

// trace runs the workload's input a fifth of the usual length four
// ways: through the entry point at the default and at one worker
// (worker invariance, parallel efficiency), through the same loop
// rebuilt from public calls with a span round each, and through the
// kernel replay.
func (e *mcEnv) trace(cfg runConfig, tr *tracer, r *report) {
	spec, m := e.spec, e.model
	shots := int(spec.TracedShotsPerSecond*cfg.Seconds/float64(2*chunkLanes)+1) * 2 * chunkLanes
	work := float64(shots * spec.Rounds)
	r.Attempted = 3 * shots / chunkLanes

	timed := func() (mcResult, float64) {
		t0 := time.Now()
		res, err := m.memory(spec.Rounds, shots, cfg.Seed)
		if err != nil || res.Samples != shots {
			r.fail("entry point: samples %d of %d, err %v", res.Samples, shots, err)
		}
		return res, work / time.Since(t0).Seconds()
	}
	mem0 := readMemCounters()
	resN, rateN := timed()
	mem1 := readMemCounters()
	procs := runtime.GOMAXPROCS(1)
	res1, rate1 := timed()
	runtime.GOMAXPROCS(procs)
	if resN.FailX != res1.FailX || resN.FailZ != res1.FailZ || resN.Failures != res1.Failures {
		r.fail("worker invariance: %d/%d/%d failures at %d workers, %d/%d/%d at one",
			resN.FailX, resN.FailZ, resN.Failures, procs, res1.FailX, res1.FailZ, res1.Failures)
		r.Failed += shots / chunkLanes
	}
	r.Metrics["frame.onecore_shot_rounds_per_s"] = rate1
	r.Metrics["frame.parallel_eff"] = rateN / (float64(procs) * rate1)
	runtimeMetrics(r, mem0, mem1, work)

	// The same loop from public calls. Chunk k draws from the sampler
	// ForEachChunk hands it, so the failures must equal the entry
	// point's.
	t0 := time.Now()
	s := tr.begin("stream.window_build", -1, -1)
	sess, err := m.newStreamSession(spec.Rounds)
	tr.end(s)
	if err != nil {
		r.fail("window: %v", err)
		return
	}
	defer sess.Close()
	var cnt streamCounts
	var chunk atomic.Int64
	keep := newCapture(maxReplayWindows)
	forEachChunk(shots, cfg.Seed, func(lanes int, smp sampler) {
		op := chunk.Add(1) - 1
		root := tr.begin("chunk", -1, op)
		s := tr.begin("surface.new_source", root, op)
		f := &liveFeed{src: m.newSource(lanes, smp), lanes: lanes, tr: tr, parent: root, op: op}
		f.x, f.z = newVecs(m.Code.Checks(), lanes), newVecs(m.Code.Checks(), lanes)
		tr.end(s)
		runStream(tr, root, op, m, sess, f, spec.Rounds, lanes, &cnt, keep)
		tr.end(root)
	})
	rateTraced := work / time.Since(t0).Seconds()
	if got := int(cnt.logicalFails.Load()); got != resN.Failures {
		r.fail("public-call loop: %d logical failures, entry point %d", got, resN.Failures)
		r.Failed += shots / chunkLanes
	}
	streamMetrics(tr, "chunk", m, &cnt, r)
	r.Metrics["trace.overhead_frac"] = 1 - rateTraced/rateN
	r.Metrics["stream.window_build_ms"] = float64(e.windowBuild.Microseconds()) / 1e3

	replayKernels(sess, keep.streams, r)
	r.Metrics["frame.bernoulli_ns_per_kbit"] = bernoulliCost(m, cfg.Seed)
	r.notef("traced %d shots x %d rounds; rates: default %.4g, one worker %.4g, traced %.4g shot-rounds/s", shots, spec.Rounds, rateN, rate1, rateTraced)
}

// bernoulliCost times the sampler's fault-mask draw at the workload's
// own rate, per 1024 lane bits.
func bernoulliCost(m model, seed uint64) float64 {
	p := m.P
	if m.Circuit {
		p = m.Eps
	}
	smp := newSampler(seed, 0xbe12)
	active, out := newVec(chunkLanes), newVec(chunkLanes)
	active.SetAll()
	const draws = 200000
	t0 := time.Now()
	for i := 0; i < draws; i++ {
		smp.Bernoulli(p, active, out)
	}
	return float64(time.Since(t0).Nanoseconds()) / (draws * chunkLanes / 1024.0)
}
