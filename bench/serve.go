package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// serve.go is what the two serving workloads share: the pool of recorded
// sessions they replay, the reference every returned frame is compared
// with, and the two in-process baselines (server without the wire, bare
// decoder without the server) the traced runs compare against.

// serveSpec sizes a serving workload. The input is recorded in set-up so
// that the timed section runs the server and nothing else.
type serveSpec struct {
	Model  func() model
	Lanes  int
	Rounds int // noisy rounds per session
	Pool   int // distinct recorded sessions, replayed in turn
	// FailRate is the logical failure rate of the returned frames at
	// the commit this benchmark was defined on. A run whose rate is
	// more than five binomial standard deviations (over the distinct
	// shots served) above it is not correct.
	FailRate float64
}

// recordedSession is one pre-generated session: its layers, the logical
// parities of the errors behind them, and the frames a standalone
// stream decoder commits for them.
type recordedSession struct {
	recordedStream
	closeX, closeZ []vec
	wind           [4]vec
	refX, refZ     []vec
	refFails       int
}

func (s *recordedSession) next(t int) ([]vec, []vec) { return s.X[t], s.Z[t] }
func (s *recordedSession) closing() ([]vec, []vec)   { return s.closeX, s.closeZ }
func (s *recordedSession) windings() [4]vec          { return s.wind }

// sessionPool is the recorded input of a serving workload.
type sessionPool struct {
	spec     serveSpec
	model    model
	cfg      sessionConfig
	sessions []recordedSession
	sourceNs int64 // time inside NextLayers while recording
}

// forEachIndex runs fn(0..n-1) on one goroutine per CPU.
func forEachIndex(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// recordPool generates the pool from the seed (session i draws from
// sampler stream i) and decodes each session once through a standalone
// stream session: the reference frames.
func recordPool(spec serveSpec, seed uint64) (*sessionPool, error) {
	m := spec.Model()
	p := &sessionPool{spec: spec, model: m, cfg: m.serverConfig(spec.Lanes), sessions: make([]recordedSession, spec.Pool)}
	ref, err := standaloneSession(p.cfg)
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	nc := m.Code.Checks()
	var sourceNs atomic.Int64
	var cnt streamCounts
	forEachIndex(spec.Pool, func(i int) {
		s := &p.sessions[i]
		s.lanes = spec.Lanes
		src := m.newSource(spec.Lanes, newSampler(seed, uint64(i)))
		t0 := time.Now()
		for t := 0; t < spec.Rounds; t++ {
			x, z := newVecs(nc, spec.Lanes), newVecs(nc, spec.Lanes)
			src.NextLayers(x, z)
			s.X, s.Z = append(s.X, x), append(s.Z, z)
		}
		sourceNs.Add(time.Since(t0).Nanoseconds())
		s.closeX, s.closeZ = newVecs(nc, spec.Lanes), newVecs(nc, spec.Lanes)
		src.CloseLayers(s.closeX, s.closeZ)
		for k := range s.wind {
			s.wind[k] = newVec(spec.Lanes)
		}
		src.Windings(s.wind[0], s.wind[1], s.wind[2], s.wind[3])
		s.refX, s.refZ = runStream(nil, -1, int64(i), m, ref, s, spec.Rounds, spec.Lanes, &cnt, nil)
		s.refFails = logicalFailures(m, s.wind, s.refX, s.refZ)
	})
	p.sourceNs = sourceNs.Load()
	return p, nil
}

// check verifies one returned result against the recorded session: the
// stream must have finished, cover every round, and commit frames
// bit-identical to the standalone reference.
func (s *recordedSession) check(res sessionResult, rounds int) error {
	if !res.Finished || res.Rounds != rounds || res.Committed != rounds {
		return fmt.Errorf("finished %v, rounds %d, committed %d, want %d", res.Finished, res.Rounds, res.Committed, rounds)
	}
	if len(res.FramesX) != len(s.refX) || len(res.FramesZ) != len(s.refZ) {
		return fmt.Errorf("frames for %d/%d lanes, want %d", len(res.FramesX), len(res.FramesZ), len(s.refX))
	}
	for lane := range s.refX {
		if !res.FramesX[lane].Equal(s.refX[lane]) || !res.FramesZ[lane].Equal(s.refZ[lane]) {
			return fmt.Errorf("lane %d: frames differ from the standalone stream decode", lane)
		}
	}
	return nil
}

// served is one completed session as the load generator saw it. Times
// are seconds from the start of the timed section.
type served struct {
	Op       int64
	Due      float64 // when its last input was due (open loop) or sent (closed loop)
	Closed   float64 // when the closing round had been handed over
	Done     float64 // when its frames were back
	Fails    int     // logical failures among its lanes
	Err      error
	Reaction float64 // Done - Due
}

// account counts the sessions into the report's ops and returns the ones
// that succeeded. limit, if positive, is the reaction a session may not
// exceed.
func (p *sessionPool) account(r *report, done []served, limit float64) (ok []served) {
	for _, s := range done {
		r.Attempted++
		if s.Err == nil && limit > 0 && s.Reaction > limit {
			s.Err = fmt.Errorf("reaction %.3g s over the %.3g s limit", s.Reaction, limit)
		}
		if s.Err != nil {
			r.Failed++
			r.notef("session %d: %v", s.Op, s.Err)
			continue
		}
		ok = append(ok, s)
	}
	return ok
}

// tally folds the completed sessions of a timed section `wall` seconds
// long, run by `clients` load-generator clients, into the report: ops,
// throughput by segments, reaction percentiles and the logical failure
// rate.
func (p *sessionPool) tally(r *report, done []served, clients int, wall float64, cpu time.Duration, limit float64) {
	ok := p.account(r, done, limit)
	if len(ok) == 0 {
		r.fail("no session succeeded")
		return
	}
	var doneAt, reaction []float64
	for _, s := range ok {
		reaction = append(reaction, s.Reaction*1e3)
		if s.Done <= wall {
			doneAt = append(doneAt, s.Done)
		}
	}
	perSession := float64(p.spec.Lanes * p.spec.Rounds)
	rates := segmentRates(doneAt, perSession, wall, 5)
	sorted := sortedCopy(rates)
	r.Metrics["shot_rounds_per_s"] = median(rates)
	r.Metrics["cpu_us_per_shot_round"] = float64(cpu.Microseconds()) / (float64(len(ok)) * perSession)
	r.notef("sessions %d, segment rate min %.4g max %.4g shot-rounds/s", len(ok), sorted[0], sorted[len(sorted)-1])
	reactionMetrics(r, reaction)
	p.checkFailRate(r, ok, clients)
}

// checkFailRate reports the logical failure rate of the frames the
// sessions that succeeded returned, each distinct recorded session
// counted once however often it was replayed (so the rate is exact for
// a seed once the run has been through the pool), and holds it to the
// accuracy recorded in the spec: speed bought with worse corrections is
// not correct. ok holds sessions of `clients` clients (see pick).
func (p *sessionPool) checkFailRate(r *report, ok []served, clients int) {
	seen := make(map[*recordedSession]bool)
	fails := 0
	for _, s := range ok {
		rec := p.pick(int(s.Op>>32), clients, int(s.Op&0xffffffff))
		if !seen[rec] {
			seen[rec] = true
			fails += s.Fails
		}
	}
	if len(seen) == 0 {
		return
	}
	lanes := float64(len(seen) * p.spec.Lanes)
	rate := float64(fails) / lanes
	r.Metrics["logical_fail_rate"] = rate
	r.Metrics["quality.logical_fail_rate"] = rate
	ceiling := p.spec.FailRate + 5*math.Sqrt(p.spec.FailRate*(1-p.spec.FailRate)/lanes)
	r.notef("logical_fail_rate %.5f over %d of the pool's %d recorded sessions (ceiling %.5f)", rate, len(seen), len(p.sessions), ceiling)
	if rate > ceiling {
		r.fail("logical failure rate %.5f above %.5f", rate, ceiling)
	}
}

// pick is the recorded session client c of `clients` replays as its
// j-th: each client walks the pool from its own starting point.
func (p *sessionPool) pick(c, clients, j int) *recordedSession {
	n := len(p.sessions)
	return &p.sessions[(c*n/clients+j)%n]
}

// closedLoops runs `clients` goroutines, each calling session again and
// again (at least once) until d has passed or it fails, and returns the
// seconds that took.
func (p *sessionPool) closedLoops(clients int, d time.Duration, r *report, session func(c, j int, rec *recordedSession) error) float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j == 0 || time.Since(t0) < d; j++ {
				if err := session(c, j, p.pick(c, clients, j)); err != nil {
					r.fail("client %d session %d: %v", c, j, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// floodServer floods the server through in-process Submit for about d:
// the server without the wire. It returns shot-rounds per second.
func (p *sessionPool) floodServer(srv *decodeServer, clients int, d time.Duration, r *report) float64 {
	var sessions atomic.Int64
	wall := p.closedLoops(clients, d, r, func(_, _ int, rec *recordedSession) error {
		s, err := srv.Open(p.cfg)
		if err != nil {
			return err
		}
		for t := 0; t < p.spec.Rounds && err == nil; t++ {
			err = s.Submit(rec.X[t], rec.Z[t])
		}
		if err == nil {
			err = s.CloseWith(rec.closeX, rec.closeZ)
		} else {
			s.Close() // ErrSessionClosed only if the server closed it first
		}
		res, werr := s.Wait()
		if err == nil {
			err = werr
		}
		if err == nil {
			err = rec.check(res, p.spec.Rounds)
		}
		sessions.Add(1)
		return err
	})
	return float64(sessions.Load()) * float64(p.spec.Lanes*p.spec.Rounds) / wall
}

// floodBare floods bare Decoder.Push on a standalone stream session, a
// span round every call: the decoder without the server. It fills the
// stream, bits and decoder metrics and returns shot-rounds per second.
func (p *sessionPool) floodBare(tr *tracer, clients int, d time.Duration, r *report) float64 {
	t0 := time.Now()
	sess, err := standaloneSession(p.cfg)
	if err != nil {
		r.fail("bare window: %v", err)
		return 0
	}
	defer sess.Close()
	r.Metrics["stream.window_build_ms"] = float64(time.Since(t0).Microseconds()) / 1e3
	var cnt streamCounts
	wall := p.closedLoops(clients, d, r, func(c, j int, rec *recordedSession) error {
		op := int64(c)<<32 | int64(j)
		root := tr.begin("bare_session", -1, op)
		fx, fz := runStream(tr, root, op, p.model, sess, rec, p.spec.Rounds, p.spec.Lanes, &cnt, nil)
		tr.end(root)
		return rec.check(sessionResult{FramesX: fx, FramesZ: fz, Rounds: p.spec.Rounds, Committed: p.spec.Rounds, Finished: true}, p.spec.Rounds)
	})
	streamMetrics(tr, "bare_session", p.model, &cnt, r)
	streams := make([]recordedStream, 0, maxReplayWindows)
	for i := 0; i < len(p.sessions) && i < maxReplayWindows; i++ {
		streams = append(streams, p.sessions[i].recordedStream)
	}
	replayKernels(sess, streams, r)
	if p.model.Circuit {
		r.Metrics["surface.source_circuit_ns_per_shot_round"] = float64(p.sourceNs) / float64(p.spec.Pool*p.spec.Lanes*p.spec.Rounds)
	}
	r.Metrics["frame.bernoulli_ns_per_kbit"] = bernoulliCost(p.model, 1)
	return float64(cnt.shotRounds.Load()) / wall
}

// histQuantile merges the servers' own commit-latency histograms
// (power-of-two buckets) and reads a quantile off them, in ms.
func histQuantile(stats []sessionStats, q float64) float64 {
	merged := make(map[time.Duration]uint64)
	var total uint64
	for _, st := range stats {
		for _, b := range st.Latency.Buckets {
			merged[b.UpTo] += b.Count
			total += b.Count
		}
	}
	if total == 0 {
		return 0
	}
	ups := make([]time.Duration, 0, len(merged))
	for up := range merged {
		ups = append(ups, up)
	}
	slices.Sort(ups)
	target, cum := uint64(q*float64(total)), uint64(0)
	for _, up := range ups {
		cum += merged[up]
		if cum > target {
			return float64(up) / 1e6
		}
	}
	return float64(ups[len(ups)-1]) / 1e6
}
