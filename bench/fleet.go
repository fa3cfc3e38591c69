package main

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// fleetPaced is the open-loop workload: fleetSlots tenants on an
// open-boundary code, ticked in lockstep at a fixed rate below the
// server's capacity, each session closed after Rounds rounds and at
// once reopened.
var fleetPaced = serveSpec{
	Model:    func() model { return model{Code: rotatedCode(9), Circuit: true, Eps: 0.003} },
	Lanes:    64,
	Rounds:   36,
	Pool:     64,
	FailRate: 0.01,
}

const (
	fleetSlots    = 8
	fleetTickRate = 600 // ticks per second, every slot submitting on each
	// reactionLimit is the service's latency limit: the sessions whose
	// frames came back later than this after the due time of their
	// closing tick are counted and printed. They are not failed ops,
	// because the reference box itself stalls for up to 360 ms a few
	// times a minute and an open loop charges each stall to every session
	// due during it.
	reactionLimit = 50 * time.Millisecond
	// sessionTimeout is what does fail a session: a server that has
	// stopped answering, clear of anything the box does on its own.
	sessionTimeout = time.Second
)

func tinyFleetModel() model { return model{Code: rotatedCode(3), Circuit: true, Eps: 0.003} }

type fleetEnv struct {
	pool      *sessionPool
	srv       *decodeServer
	tickRate  int
	openFirst time.Duration
	awake     *awake // keeps the CPUs from halting between ticks (awake_linux.go)
}

func setupFleet(cfg runConfig) (env, error) {
	spec := fleetPaced
	if cfg.Tiny {
		spec = spec.tiny(tinyFleetModel)
	}
	pool, err := recordPool(spec, cfg.Seed)
	if err != nil {
		return nil, err
	}
	e := &fleetEnv{pool: pool, srv: newServer(), tickRate: fleetTickRate, awake: &awake{}}
	if cfg.Tiny {
		e.tickRate = fleetTickRate / 4 // sustainable under the race detector too
	} else {
		e.awake = startAwake()
	}
	// The first Open builds and interns the window; one whole session
	// then warms the decoder scratch and the closing-volume cache.
	t0 := time.Now()
	s, err := e.srv.Open(pool.cfg)
	if err != nil {
		e.close()
		return nil, err
	}
	e.openFirst = time.Since(t0)
	if err := s.Close(); err != nil {
		e.close()
		return nil, err
	}
	s.Wait()
	warm := newReport("fleet-paced")
	pool.floodServer(e.srv, 1, 0, warm)
	if !warm.Correct {
		e.close()
		return nil, errors.New("fleet-paced warm-up: " + warm.Notes[0])
	}
	return e, nil
}

func (e *fleetEnv) close() {
	e.awake.stop()
	e.srv.Shutdown()
}

// noteAwake records how many CPUs were kept from halting: a run with
// fewer than all of them measured a different machine, and two such
// runs are not to be compared.
func (e *fleetEnv) noteAwake(r *report) {
	n := e.awake.running()
	r.Metrics["keep_awake_cpus"] = float64(n)
	if n < runtime.NumCPU() {
		r.notef("CONDITIONS DIFFER: %d of %d CPUs kept awake (awake_linux.go); compare only with runs that say the same", n, runtime.NumCPU())
	}
}

func (e *fleetEnv) plan(seconds float64) fleetPlan {
	return fleetPlan{
		Slots:  fleetSlots,
		Rounds: e.pool.spec.Rounds,
		Period: time.Second / time.Duration(e.tickRate),
		Ticks:  int(seconds * float64(e.tickRate)),
	}
}

// serverFleet drives a decode server's in-process sessions for the
// generator, a span round every call when traced.
type serverFleet struct {
	p     *sessionPool
	srv   *decodeServer
	tr    *tracer
	slots []fleetSlot
	probe *fleetProbe // nil unless traced

	mu    sync.Mutex
	stats []sessionStats // of every completed session (traced only)
}

type fleetSlot struct {
	s     *serverSession
	rec   *recordedSession
	op    int64
	root  int
	watch *probed
}

func newServerFleet(p *sessionPool, srv *decodeServer, tr *tracer) *serverFleet {
	f := &serverFleet{p: p, srv: srv, tr: tr, slots: make([]fleetSlot, fleetSlots)}
	if tr != nil {
		f.probe = newFleetProbe(p.cfg.Window, p.cfg.Commit)
	}
	return f
}

func (f *serverFleet) open(slot, seq int) error {
	sl := &f.slots[slot]
	sl.rec = f.p.pick(slot, fleetSlots, seq)
	sl.op = int64(slot)<<32 | int64(seq)
	sl.root = f.tr.begin("fleet.session", -1, sl.op)
	s := f.tr.begin("server.open", sl.root, sl.op)
	var err error
	sl.s, err = f.srv.Open(f.p.cfg)
	f.tr.end(s)
	if err == nil && f.probe != nil {
		sl.watch = f.probe.watch(slot, sl.s)
	}
	return err
}

func (f *serverFleet) submit(slot, _, round int) error {
	sl := &f.slots[slot]
	if f.probe != nil {
		f.probe.submitting(sl.watch, round)
	}
	s := f.tr.begin("server.submit", sl.root, sl.op)
	err := sl.s.Submit(sl.rec.X[round], sl.rec.Z[round])
	f.tr.end(s)
	return err
}

func (f *serverFleet) finish(slot, _ int) (func() (int, error), error) {
	sl := f.slots[slot]
	s := f.tr.begin("server.close_with", sl.root, sl.op)
	err := sl.s.CloseWith(sl.rec.closeX, sl.rec.closeZ)
	f.tr.end(s)
	if err != nil {
		return nil, err
	}
	drain := f.tr.begin("server.drain", sl.root, sl.op)
	return func() (int, error) {
		res, err := sl.s.Wait()
		f.tr.end(drain)
		f.tr.end(sl.root)
		if f.tr != nil {
			st := sl.s.Stats()
			f.mu.Lock()
			f.stats = append(f.stats, st)
			f.mu.Unlock()
		}
		if err == nil {
			err = sl.rec.check(res, f.p.spec.Rounds)
		}
		if err != nil {
			return 0, err
		}
		return logicalFailures(f.p.model, sl.rec.wind, res.FramesX, res.FramesZ), nil
	}, nil
}

// fleetProbe polls Session.Stats from a goroutine of its own, the only
// view of a running session the server gives: how many rounds are
// submitted but not yet committed, and how long after the round that
// triggers a slide was submitted its commit becomes visible.
type fleetProbe struct {
	window, commit int
	slots          [fleetSlots]atomic.Pointer[probed]
	stop           chan struct{}
	done           sync.WaitGroup

	// Written by the polling goroutine, read after finish.
	commitLag   []float64 // seconds
	inflightSum float64
	inflightMax float64
	samples     int
}

// probed is one watched session. The generator appends the submit time
// of each slide-triggering round; the probe matches them with commits.
type probed struct {
	s    *serverSession
	mu   sync.Mutex
	trig []time.Time
	seen int
}

const probeEvery = 500 * time.Microsecond

func newFleetProbe(window, commit int) *fleetProbe {
	return &fleetProbe{window: window, commit: commit, stop: make(chan struct{})}
}

func (p *fleetProbe) watch(slot int, s *serverSession) *probed {
	w := &probed{s: s}
	p.slots[slot].Store(w)
	return w
}

// submitting is called by the generator just before it submits a round.
// The push of round window + k*commit finds the window full and slides.
func (p *fleetProbe) submitting(w *probed, round int) {
	if round >= p.window && (round-p.window)%p.commit == 0 {
		w.mu.Lock()
		w.trig = append(w.trig, time.Now())
		w.mu.Unlock()
	}
}

func (p *fleetProbe) start() {
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.poll()
			}
		}
	}()
}

func (p *fleetProbe) finish() {
	close(p.stop)
	p.done.Wait()
}

func (p *fleetProbe) poll() {
	for i := range p.slots {
		w := p.slots[i].Load()
		if w == nil {
			continue
		}
		st := w.s.Stats()
		now := time.Now()
		inflight := float64(st.Rounds - st.Committed)
		p.inflightSum += inflight
		p.inflightMax = max(p.inflightMax, inflight)
		p.samples++
		slides := int(st.Committed) / p.commit
		w.mu.Lock()
		for w.seen < len(w.trig) && w.seen < slides {
			p.commitLag = append(p.commitLag, now.Sub(w.trig[w.seen]).Seconds())
			w.seen++
		}
		w.mu.Unlock()
	}
}

// pace runs the plan on the server and folds the generator's own
// figures (lateness, backlog) into the report's notes and checks.
func (e *fleetEnv) pace(plan fleetPlan, tr *tracer, r *report) (fleetRun, *serverFleet) {
	f := newServerFleet(e.pool, e.srv, tr)
	if f.probe != nil {
		f.probe.start()
	}
	run := runFleet(plan, f)
	if f.probe != nil {
		f.probe.finish()
	}
	if grows, fifths := backlogGrows(run.Pending); grows {
		r.fail("backlog grows through the run: mean sessions waiting per fifth %.3g", fifths)
	}
	return run, f
}

func (e *fleetEnv) measure(cfg runConfig, r *report) {
	e.noteAwake(r)
	plan := e.plan(cfg.Seconds)
	cpu0 := cpuTime()
	run, _ := e.pace(plan, nil, r)
	cpu := cpuTime() - cpu0
	// The schedule fixes the offered rate: what is reported is what came
	// back, over the time it took the last session to report.
	e.pool.tally(r, run.Sessions, fleetSlots, run.Wall, cpu, sessionTimeout.Seconds())
	over := 0
	for _, s := range run.Sessions {
		if s.Reaction > reactionLimit.Seconds() {
			over++
		}
	}
	r.notef("sessions over the %v reaction limit: %d of %d", reactionLimit, over, len(run.Sessions))
	late := sortedCopy(run.Late)
	worst := 0
	for i, l := range run.Late {
		if l > run.Late[worst] {
			worst = i
		}
	}
	r.notef("generator late p50 %.3g us, max %.3g us (tick %d) over %d ticks at %d ticks/s, GOMAXPROCS %d",
		median(late)*1e6, late[len(late)-1]*1e6, worst, plan.Ticks, e.tickRate, runtime.GOMAXPROCS(0))
}

// trace runs the paced fleet untraced and traced (every server call in a
// span, Stats polled), then the same pool flooded through the server and
// through bare decoders.
func (e *fleetEnv) trace(cfg runConfig, tr *tracer, r *report) {
	e.noteAwake(r)
	p := e.pool
	plan := e.plan(0.3 * cfg.Seconds)
	span := float64(plan.Ticks) * plan.Period.Seconds()
	perSession := float64(p.spec.Lanes * p.spec.Rounds)

	m0 := readMemCounters()
	plain, _ := e.pace(plan, nil, r)
	m1 := readMemCounters()
	runtimeMetrics(r, m0, m1, float64(len(plain.Sessions)*p.spec.Rounds))
	traced, f := e.pace(plan, tr, r)
	ok := p.account(r, plain.Sessions, sessionTimeout.Seconds())
	tracedOK := p.account(r, traced.Sessions, sessionTimeout.Seconds())
	r.Metrics["trace.overhead_frac"] = 1 - float64(len(tracedOK))/float64(max(len(ok), 1))

	late := sortedMicros(plain.Late)
	r.Metrics["loadgen.late_p50_us"] = median(late)
	r.setPercentile("loadgen.late_p99_us", late, 99, 1)
	over := 0
	for _, l := range plain.Late {
		if l > plan.Period.Seconds() {
			over++
		}
	}
	r.Metrics["loadgen.late_over_period_frac"] = float64(over) / float64(len(plain.Late))

	r.Metrics["server.open_first_ms"] = float64(e.openFirst.Microseconds()) / 1e3
	r.Metrics["server.open_warm_us"] = median(sortedMicros(tr.durations("server.open")))
	submit := sortedMicros(tr.durations("server.submit"))
	r.Metrics["server.submit_p50_us"] = median(submit)
	r.setPercentile("server.submit_p99_us", submit, 99, 1)
	r.Metrics["server.submit_busy_frac"] = tr.totals()["server.submit"].Total.Seconds() / traced.Wall
	r.Metrics["server.drain_p50_ms"] = median(sortedMicros(tr.durations("server.drain"))) / 1e3
	lag := sortedMicros(f.probe.commitLag)
	r.Metrics["server.commit_lag_p50_ms"] = median(lag) / 1e3
	r.setPercentile("server.commit_lag_p99_ms", lag, 99, 1e-3)
	if f.probe.samples > 0 {
		r.Metrics["server.inflight_rounds_mean"] = f.probe.inflightSum / float64(f.probe.samples)
		r.Metrics["server.inflight_rounds_max"] = f.probe.inflightMax
	}
	var slides, density, overflows float64
	for _, st := range f.stats {
		slides += float64(st.Slides)
		density += st.DefectDensity
		overflows += float64(st.Overflows)
	}
	if n := float64(len(f.stats)); n > 0 {
		r.Metrics["server.slides_per_session"] = slides / n
		r.Metrics["server.defect_density"] = density / n
	}
	r.Metrics["server.overflows"] = overflows
	r.Metrics["server.hist_p50_ms"] = histQuantile(f.stats, 0.50)
	r.Metrics["server.hist_p99_ms"] = histQuantile(f.stats, 0.99)

	var reaction, lateAtClose, drain []float64
	for _, s := range ok {
		reaction = append(reaction, s.Reaction*1e3)
		lateAtClose = append(lateAtClose, (s.Closed-s.Due)*1e3)
		drain = append(drain, (s.Done-s.Closed)*1e3)
	}

	inproc := p.floodServer(e.srv, runtime.GOMAXPROCS(0), time.Duration(0.15*cfg.Seconds*float64(time.Second)), r)
	bare := p.floodBare(tr, runtime.GOMAXPROCS(0), time.Duration(0.15*cfg.Seconds*float64(time.Second)), r)
	p.checkFailRate(r, append(ok, tracedOK...), fleetSlots)
	r.Metrics["server.overhead_frac"] = 1 - inproc/bare
	r.notef("reaction p50 %.4g ms: generator lateness at the closing tick p50 %.4g ms, then drain (wait behind queued rounds + closing decode) p50 %.4g ms; a bare Finish of the same lanes takes %.4g ms",
		median(reaction), median(lateAtClose), median(drain), r.Metrics["stream.finish_us_per_shot"]*float64(p.spec.Lanes)/1e3)
	r.notef("rates: paced %.4g offered over %.3g s, flooded in-process %.4g, bare decoder %.4g shot-rounds/s",
		float64(len(ok))*perSession/span, span, inproc, bare)
}
