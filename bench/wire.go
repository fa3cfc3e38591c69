package main

import (
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// wireFlood is the tenant path at capacity: one closed loop per core,
// each a loopback TCP connection carrying back-to-back wire sessions
// (Open, Round x Rounds, Finish) replayed from the recorded pool.
var wireFlood = serveSpec{
	Model:    func() model { return model{Code: toricCode(8), Circuit: true, Eps: 0.003} },
	Lanes:    64,
	Rounds:   64,
	Pool:     64,
	FailRate: 0.015,
}

// tiny shrinks a spec to smoke-test size on the given small code.
func (s serveSpec) tiny(m func() model) serveSpec {
	s.Model = m
	s.Rounds = 20
	s.Pool = 8
	s.FailRate = 0.2
	return s
}

type wireEnv struct {
	pool    *sessionPool
	srv     *decodeServer
	ln      net.Listener
	clients int
	serving sync.WaitGroup
	counts  wireCounts             // what crossed the accepted connections (traced runs)
	r       atomic.Pointer[report] // where the serving side reports failures
}

// wireCounts counts the server side's I/O calls on the accepted
// connections.
type wireCounts struct {
	reads, writes, bytesIn atomic.Int64
}

// countingConn wraps an accepted connection so that every Read and Write
// ServeConn issues is counted.
type countingConn struct {
	net.Conn
	c *wireCounts
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.c.reads.Add(1)
	c.c.bytesIn.Add(int64(n))
	return n, err
}

func (c countingConn) Write(b []byte) (int, error) {
	c.c.writes.Add(1)
	return c.Conn.Write(b)
}

func setupWire(cfg runConfig) (env, error) {
	spec := wireFlood
	if cfg.Tiny {
		spec = spec.tiny(func() model { return model{Code: toricCode(4), Circuit: true, Eps: 0.003} })
	}
	pool, err := recordPool(spec, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &wireEnv{pool: pool, srv: newServer(), ln: ln, clients: runtime.GOMAXPROCS(0)}
	e.serving.Add(1)
	go e.accept(cfg.Trace)
	// One session per connection interns the window and warms the
	// decoder scratch before anything is timed.
	warm := newReport("wire-flood")
	e.r.Store(warm)
	e.flood(nil, 0, 1)
	if !warm.Correct {
		e.close()
		return nil, errors.New("wire-flood warm-up: " + warm.Notes[0])
	}
	return e, nil
}

// accept serves every connection until the listener closes. ServeConn
// carries one session, so a connection is served in a loop until the
// client hangs up.
func (e *wireEnv) accept(count bool) {
	defer e.serving.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return
		}
		e.serving.Add(1)
		go func() {
			defer e.serving.Done()
			defer conn.Close()
			var rw io.ReadWriter = conn
			if count {
				rw = countingConn{conn, &e.counts}
			}
			for {
				if err := e.srv.ServeConn(rw); err != nil {
					if err != io.EOF {
						e.r.Load().fail("ServeConn: %v", err)
					}
					return
				}
			}
		}()
	}
}

func (e *wireEnv) close() {
	e.ln.Close()
	e.serving.Wait()
	e.srv.Shutdown()
}

// flood runs the closed loops: each client keeps starting sessions
// until d has passed, and at least minSessions. It returns every
// completed session and the wall time of the slowest client.
func (e *wireEnv) flood(tr *tracer, d time.Duration, minSessions int) ([]served, float64) {
	p, r := e.pool, e.r.Load()
	out := make([][]served, e.clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < e.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := tr.begin("wire.dial", -1, int64(c)<<32)
			conn, err := net.Dial("tcp", e.ln.Addr().String())
			tr.end(s)
			if err != nil {
				r.fail("dial: %v", err)
				return
			}
			defer conn.Close()
			w := dialWire(conn)
			for j := 0; j < minSessions || time.Since(t0) < d; j++ {
				rec := p.pick(c, e.clients, j)
				sv := served{Op: int64(c)<<32 | int64(j)}
				root := tr.begin("wire.session", -1, sv.Op)
				s := tr.begin("wire.open", root, sv.Op)
				err := w.Open(p.cfg)
				tr.end(s)
				for t := 0; t < p.spec.Rounds && err == nil; t++ {
					s := tr.begin("wire.round", root, sv.Op)
					err = w.Round(rec.X[t], rec.Z[t])
					tr.end(s)
				}
				var res sessionResult
				sv.Due = time.Since(t0).Seconds()
				if err == nil {
					s := tr.begin("wire.finish", root, sv.Op)
					res, err = w.Finish(rec.closeX, rec.closeZ)
					tr.end(s)
				}
				sv.Done = time.Since(t0).Seconds()
				tr.end(root)
				sv.Closed, sv.Reaction = sv.Due, sv.Done-sv.Due
				if err == nil {
					err = rec.check(res, p.spec.Rounds)
				}
				if err == nil {
					sv.Fails = logicalFailures(p.model, rec.wind, res.FramesX, res.FramesZ)
				}
				sv.Err = err
				out[c] = append(out[c], sv)
				if err != nil {
					return // the stream is out of step; this client stops
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	var all []served
	for _, o := range out {
		all = append(all, o...)
	}
	return all, wall
}

func (e *wireEnv) measure(cfg runConfig, r *report) {
	e.r.Store(r)
	cpu0 := cpuTime()
	done, _ := e.flood(nil, time.Duration(cfg.Seconds*float64(time.Second)), 1)
	cpu := cpuTime() - cpu0
	e.pool.tally(r, done, e.clients, cfg.Seconds, cpu, 0)
}

// trace runs the flood four ways, each for a share of -seconds:
// untraced over the wire, traced over the wire (client calls in spans,
// server-side I/O counted), through in-process Submit (the wire's
// cost), and through bare decoders (the server's cost).
func (e *wireEnv) trace(cfg runConfig, tr *tracer, r *report) {
	e.r.Store(r)
	p := e.pool
	share := func(f float64) time.Duration { return time.Duration(f * cfg.Seconds * float64(time.Second)) }
	perSession := float64(p.spec.Lanes * p.spec.Rounds)

	m0 := readMemCounters()
	plain, wall := e.flood(nil, share(0.25), 1)
	m1 := readMemCounters()
	ok := p.account(r, plain, 0)
	plainRate := float64(len(ok)) * perSession / wall
	runtimeMetrics(r, m0, m1, float64(len(plain)*p.spec.Rounds))

	reads0, writes0, bytes0 := e.counts.reads.Load(), e.counts.writes.Load(), e.counts.bytesIn.Load()
	traced, wall := e.flood(tr, share(0.25), 1)
	tracedOK := p.account(r, traced, 0)
	tracedRate := float64(len(tracedOK)) * perSession / wall
	// Not a round's: the Read of each session's open message and of each
	// connection's hang-up.
	sessions := float64(len(traced))
	reads := float64(e.counts.reads.Load()-reads0) - sessions - float64(e.clients)
	rounds := sessions * float64(p.spec.Rounds+1) // the closing round travels like any other
	r.Metrics["wire.server_reads_per_round"] = reads / rounds
	r.Metrics["wire.server_writes_per_session"] = float64(e.counts.writes.Load()-writes0) / sessions
	r.Metrics["wire.bytes_per_round"] = float64(e.counts.bytesIn.Load()-bytes0) / rounds
	r.Metrics["trace.overhead_frac"] = 1 - tracedRate/plainRate

	us := func(name string) []float64 { return sortedMicros(tr.durations(name)) }
	r.Metrics["wire.dial_open_us"] = median(us("wire.dial")) + median(us("wire.open"))
	roundUs := us("wire.round")
	r.Metrics["wire.round_write_p50_us"] = median(roundUs)
	r.setPercentile("wire.round_write_p99_us", roundUs, 99, 1)
	r.Metrics["wire.finish_p50_ms"] = median(us("wire.finish")) / 1e3

	inproc := p.floodServer(e.srv, e.clients, share(0.15), r)
	bare := p.floodBare(tr, e.clients, share(0.15), r)
	p.checkFailRate(r, append(ok, tracedOK...), e.clients)
	r.Metrics["wire.overhead_frac"] = 1 - plainRate/inproc
	r.Metrics["server.overhead_frac"] = 1 - inproc/bare
	r.notef("rates: wire %.4g, traced wire %.4g, in-process %.4g, bare decoder %.4g shot-rounds/s", plainRate, tracedRate, inproc, bare)
}
