package server

import (
	"errors"
	"math/rand/v2"
	"net"
	"sync"
	"testing"
	"time"

	"ftqc/internal/bits"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/spacetime"
	"ftqc/internal/stream"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// toricPhenomenological / toricCircuitLevel name the L×L torus by its
// size, so the fleet tables stay (l, lanes, rates).
func toricPhenomenological(l, lanes int, p, q float64) SessionConfig {
	return PhenomenologicalCode(toric.Cached(l), lanes, p, q)
}

func toricCircuitLevel(l, lanes int, P noise.Params) SessionConfig {
	return CircuitLevelCode(toric.Cached(l), lanes, P)
}

// newFeed builds the layer feed a test session consumes — circuit-level
// when the config carries diagonal edges, phenomenological otherwise.
// The same (cfg, seed) always yields the same draw order, which is what
// the equivalence tests lean on.
func newFeed(cfg SessionConfig, P noise.Params, p, q float64, seed uint64) spacetime.LayerFeed {
	smp := frame.NewAggregateSampler(seed, 5)
	if cfg.WD > 0 {
		return surface.NewCircuitSource(cfg.Code, P, cfg.Lanes, smp)
	}
	return surface.NewLayerSource(cfg.Code, p, q, cfg.Lanes, smp)
}

// standaloneFrames drives a private stream.Session over the same draw
// order a server session sees: rounds pushes, then Finish when finish
// is true. Returns the decoder's frames and committed-round count.
func standaloneFrames(t testing.TB, cfg SessionConfig, P noise.Params, p, q float64, rounds int, seed uint64, finish bool) (x, z []bits.Vec, committed int) {
	t.Helper()
	var ss *stream.Session
	var err error
	if cfg.WD > 0 {
		ss, err = stream.NewCodeCircuitSession(cfg.Code, cfg.Window, cfg.Commit, cfg.WH, cfg.WV, cfg.WD)
	} else {
		ss, err = stream.NewCodeSession(cfg.Code, cfg.Window, cfg.Commit, cfg.WH, cfg.WV)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	src := newFeed(cfg, P, p, q, seed)
	d := ss.NewDecoder(cfg.Lanes)
	nc := cfg.Code.Checks()
	layerX := bits.NewVecs(nc, cfg.Lanes)
	layerZ := bits.NewVecs(nc, cfg.Lanes)
	for r := 0; r < rounds; r++ {
		src.NextLayers(layerX, layerZ)
		d.Push(layerX, layerZ)
	}
	if finish {
		src.CloseLayers(layerX, layerZ)
		d.Finish(layerX, layerZ)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	cx, cz := d.Corrections()
	return cx, cz, d.Committed()
}

// driveSession streams a seeded feed into one server session and waits
// for the frames.
func driveSession(srv *Server, cfg SessionConfig, P noise.Params, p, q float64, rounds int, seed uint64) (SessionResult, error) {
	s, err := srv.Open(cfg)
	if err != nil {
		return SessionResult{}, err
	}
	src := newFeed(cfg, P, p, q, seed)
	nc := cfg.Code.Checks()
	layerX := bits.NewVecs(nc, cfg.Lanes)
	layerZ := bits.NewVecs(nc, cfg.Lanes)
	for r := 0; r < rounds; r++ {
		src.NextLayers(layerX, layerZ)
		if err := s.Submit(layerX, layerZ); err != nil {
			return SessionResult{}, err
		}
	}
	src.CloseLayers(layerX, layerZ)
	if err := s.CloseWith(layerX, layerZ); err != nil {
		return SessionResult{}, err
	}
	return s.Wait()
}

func framesEqual(aX, aZ, bX, bZ []bits.Vec) bool {
	if len(aX) != len(bX) || len(aZ) != len(bZ) {
		return false
	}
	for lane := range aX {
		if !aX[lane].Equal(bX[lane]) || !aZ[lane].Equal(bZ[lane]) {
			return false
		}
	}
	return true
}

// TestServerMatchesStandaloneStream is the acceptance criterion: a
// 64-session L=8 circuit-level run on the server drains to completion
// with per-session committed frames bit-identical to standalone
// stream.Session runs, independent of the shared pool's worker count
// (8 sessions and small pools in -short mode).
func TestServerMatchesStandaloneStream(t *testing.T) {
	sessions := 64
	workerCounts := []int{0, 1}
	if testing.Short() {
		sessions = 8
		workerCounts = []int{3, 1}
	}
	const l, lanes, rounds = 8, 64, 40
	P := noise.Uniform(0.003)
	cfg := toricCircuitLevel(l, lanes, P)

	// Standalone references, one per session seed.
	refX := make([][]bits.Vec, sessions)
	refZ := make([][]bits.Vec, sessions)
	for i := 0; i < sessions; i++ {
		refX[i], refZ[i], _ = standaloneFrames(t, cfg, P, 0, 0, rounds, 7000+uint64(i), true)
	}

	for pass, workers := range workerCounts {
		n := sessions
		if pass > 0 {
			// The second pool size re-checks a subset — worker-count
			// invariance, not another full sweep.
			n = sessions / 4
		}
		srv := New(Config{Workers: workers})
		var wg sync.WaitGroup
		results := make([]SessionResult, n)
		errs := make([]error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = driveSession(srv, cfg, P, 0, 0, rounds, 7000+uint64(i))
			}(i)
		}
		wg.Wait()
		for i := 0; i < n; i++ {
			if errs[i] != nil {
				t.Fatalf("workers=%d session %d: %v", workers, i, errs[i])
			}
			res := results[i]
			if !res.Finished || res.Rounds != rounds || res.Committed != rounds {
				t.Fatalf("workers=%d session %d: incomplete drain %+v", workers, i, res)
			}
			if !framesEqual(res.FramesX, res.FramesZ, refX[i], refZ[i]) {
				t.Fatalf("workers=%d session %d: server frames differ from standalone stream", workers, i)
			}
		}
		srv.Shutdown()
	}
}

// TestServerBackpressureReject: with OverflowReject a full ingest queue
// fails fast with ErrBacklog and counts the overflow, and the session
// recovers once the decode catches up. The gate hook holds the worker
// so the queue state is deterministic.
func TestServerBackpressureReject(t *testing.T) {
	const depth = 3
	srv := New(Config{Workers: 1, QueueDepth: depth, Overflow: OverflowReject})
	defer srv.Shutdown()
	gate := make(chan struct{})
	cfg := toricPhenomenological(3, 16, 0.02, 0.02)
	cfg.gate = gate
	s, err := srv.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nc := cfg.Code.Checks()
	layerX := bits.NewVecs(nc, cfg.Lanes)
	layerZ := bits.NewVecs(nc, cfg.Lanes)
	accepted := 0
	for accepted < depth+4 {
		err := s.Submit(layerX, layerZ)
		if errors.Is(err, ErrBacklog) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		accepted++
	}
	// The queue holds depth rounds; the worker may hold one more.
	if accepted < depth || accepted > depth+1 {
		t.Fatalf("accepted %d rounds into a depth-%d queue before backlog", accepted, depth)
	}
	if s.Stats().Overflows == 0 {
		t.Fatal("overflow not counted")
	}
	close(gate) // release the worker
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := s.Submit(layerX, layerZ)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrBacklog) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("session did not recover after the worker drained")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestServerBackpressureBlock: with OverflowBlock a submitter stalls on
// a full queue instead of failing, and proceeds when the worker drains.
func TestServerBackpressureBlock(t *testing.T) {
	const depth = 2
	srv := New(Config{Workers: 1, QueueDepth: depth, Overflow: OverflowBlock})
	defer srv.Shutdown()
	gate := make(chan struct{})
	cfg := toricPhenomenological(3, 16, 0.02, 0.02)
	cfg.gate = gate
	s, err := srv.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nc := cfg.Code.Checks()
	layerX := bits.NewVecs(nc, cfg.Lanes)
	layerZ := bits.NewVecs(nc, cfg.Lanes)
	done := make(chan struct{})
	const total = depth + 6
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			if err := s.Submit(layerX, layerZ); err != nil {
				t.Errorf("blocking submit %d: %v", i, err)
				return
			}
		}
	}()
	select {
	case <-done:
		t.Fatal("submitter never blocked on a gated full queue")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("submitter still blocked after the worker drained")
	}
	if got := s.Stats().Overflows; got != 0 {
		t.Fatalf("block policy counted %d overflows", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestServerDrainDeliversCommitted: Shutdown without a closing round
// flushes every queued round and Wait returns exactly the frames a
// standalone decoder has committed after the same pushes.
func TestServerDrainDeliversCommitted(t *testing.T) {
	const l, lanes, rounds, seed = 4, 32, 24, 7300
	cfg := toricPhenomenological(l, lanes, 0.03, 0.03)
	refX, refZ, refCommitted := standaloneFrames(t, cfg, noise.Params{}, 0.03, 0.03, rounds, seed, false)
	if refCommitted == 0 {
		t.Fatal("reference committed nothing — test misconfigured")
	}

	srv := New(Config{Workers: 2})
	s, err := srv.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := newFeed(cfg, noise.Params{}, 0.03, 0.03, seed)
	nc := l * l
	layerX := bits.NewVecs(nc, lanes)
	layerZ := bits.NewVecs(nc, lanes)
	for r := 0; r < rounds; r++ {
		src.NextLayers(layerX, layerZ)
		if err := s.Submit(layerX, layerZ); err != nil {
			t.Fatal(err)
		}
	}
	srv.Shutdown()
	res, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished {
		t.Fatal("drained session reported a finished stream")
	}
	if res.Rounds != rounds || res.Committed != refCommitted {
		t.Fatalf("drain delivered %d/%d rounds committed, want %d/%d", res.Committed, res.Rounds, refCommitted, rounds)
	}
	if !framesEqual(res.FramesX, res.FramesZ, refX, refZ) {
		t.Fatal("drained frames differ from the standalone committed prefix")
	}

	// After shutdown the server accepts nothing new, and refuses a shape
	// it never saw before building or interning its window.
	interned := stream.Shapes()
	if _, err := srv.Open(toricPhenomenological(l+1, lanes, 0.03, 0.03)); !errors.Is(err, ErrDraining) {
		t.Fatalf("Open after Shutdown: %v", err)
	}
	if stream.Shapes() > interned {
		t.Fatalf("Open after Shutdown interned a window: %d shapes, had %d", stream.Shapes(), interned)
	}
	if err := s.Submit(layerX, layerZ); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Submit after Shutdown: %v", err)
	}
	if err := s.Close(); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("double Close: %v", err)
	}
}

// TestServerChurn is the race-mode smoke: concurrent session
// open/submit/close against one server, with Snapshot readers in
// flight, must stay panic- and race-free.
func TestServerChurn(t *testing.T) {
	srv := New(Config{Workers: 3, QueueDepth: 4})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // snapshot reader
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				srv.Snapshot()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	for c := 0; c < 10; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(7500, uint64(c)))
			for it := 0; it < 3; it++ {
				l := 3 + rng.IntN(2)
				cfg := toricPhenomenological(l, 16+rng.IntN(32), 0.02, 0.02)
				cfg.Window, cfg.Commit = 3+rng.IntN(4), 1+rng.IntN(2)
				s, err := srv.Open(cfg)
				if err != nil {
					t.Errorf("churn %d.%d: %v", c, it, err)
					return
				}
				src := newFeed(cfg, noise.Params{}, 0.02, 0.02, rng.Uint64())
				nc := l * l
				layerX := bits.NewVecs(nc, cfg.Lanes)
				layerZ := bits.NewVecs(nc, cfg.Lanes)
				rounds := 1 + rng.IntN(20)
				for r := 0; r < rounds; r++ {
					src.NextLayers(layerX, layerZ)
					if err := s.Submit(layerX, layerZ); err != nil {
						t.Errorf("churn %d.%d submit: %v", c, it, err)
						return
					}
				}
				if rng.IntN(2) == 0 {
					src.CloseLayers(layerX, layerZ)
					if err := s.CloseWith(layerX, layerZ); err != nil {
						t.Errorf("churn %d.%d close: %v", c, it, err)
						return
					}
				} else if err := s.Close(); err != nil {
					t.Errorf("churn %d.%d drain: %v", c, it, err)
					return
				}
				if res, err := s.Wait(); err != nil {
					t.Errorf("churn %d.%d wait: %v", c, it, err)
					return
				} else if res.Rounds != rounds {
					t.Errorf("churn %d.%d: %d rounds ingested, want %d", c, it, res.Rounds, rounds)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	srv.Shutdown()
}

// TestServerValidation: misconfigured sessions fail at Open with
// descriptive errors, not mid-decode panics.
func TestServerValidation(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Shutdown()
	good := toricPhenomenological(3, 8, 0.02, 0.02)
	bad := []SessionConfig{
		{Code: good.Code, Lanes: 0, Window: good.Window, Commit: good.Commit, WH: good.WH, WV: good.WV},
		{Code: nil, Lanes: 8, Window: 4, Commit: 2, WH: 1, WV: 1},
		{Code: good.Code, Lanes: 8, Window: 4, Commit: 4, WH: 1, WV: 1},
		{Code: good.Code, Lanes: 8, Window: 4, Commit: 2, WH: 0, WV: 1},
		{Code: good.Code, Lanes: 8, Window: 4, Commit: 2, WH: 40000, WV: 1},
	}
	for i, cfg := range bad {
		if _, err := srv.Open(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	s, err := srv.Open(good)
	if err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	wrong := bits.NewVecs(good.Code.Checks()+1, good.Lanes)
	if err := s.Submit(wrong, wrong); err == nil {
		t.Error("mismatched plane count accepted")
	}
	// A closing round of the wrong shape is an error that leaves the
	// session open: the right one still finishes it, and Shutdown returns.
	zero := bits.NewVecs(good.Code.Checks(), good.Lanes)
	for _, row := range []struct {
		name    string
		closing []bits.Vec
	}{
		{"plane count", wrong},
		{"lane count", bits.NewVecs(good.Code.Checks(), good.Lanes+1)},
	} {
		if err := s.CloseWith(row.closing, row.closing); err == nil || errors.Is(err, ErrSessionClosed) {
			t.Errorf("CloseWith with a wrong %s: %v", row.name, err)
		}
		if err := s.Submit(zero, zero); err != nil {
			t.Fatalf("session unusable after a refused CloseWith (%s): %v", row.name, err)
		}
	}
	if err := s.CloseWith(zero, zero); err != nil {
		t.Fatal(err)
	}
	if res, err := s.Wait(); err != nil || !res.Finished || res.Committed != 2 {
		t.Fatalf("session did not finish: %+v, %v", res, err)
	}
	down := make(chan struct{})
	go func() { srv.Shutdown(); close(down) }()
	select {
	case <-down:
	case <-time.After(3 * time.Second):
		t.Fatal("Shutdown hangs after a refused CloseWith")
	}
}

// TestMalformedPlaneRefused: a round or closing round whose planes past
// the first carry the wrong lane count is an error, not a panic inside
// the plane copy, and it costs the session no queue buffer: more
// refused Submits than the queue holds, then good rounds, CloseWith and
// Wait all succeed.
func TestMalformedPlaneRefused(t *testing.T) {
	const depth = 2
	srv := New(Config{Workers: 1, QueueDepth: depth})
	defer srv.Shutdown()
	cfg := toricPhenomenological(3, 64, 0.02, 0.02)
	s, err := srv.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nc := cfg.Code.Checks()
	zero := bits.NewVecs(nc, cfg.Lanes)
	bad := bits.NewVecs(nc, cfg.Lanes)
	bad[3] = bits.NewVec(cfg.Lanes + 1)
	for i := 0; i < depth+3; i++ {
		if err := s.Submit(zero, bad); err == nil {
			t.Fatal("Submit accepted a plane of 65 lanes")
		}
		if err := s.Submit(bad, zero); err == nil {
			t.Fatal("Submit accepted a plane of 65 lanes")
		}
	}
	if err := s.CloseWith(bad, zero); err == nil || errors.Is(err, ErrSessionClosed) {
		t.Fatalf("CloseWith with a plane of 65 lanes: %v", err)
	}
	const rounds = 3 * depth
	for r := 0; r < rounds; r++ {
		if err := s.Submit(zero, zero); err != nil {
			t.Fatalf("round %d after refused rounds: %v", r, err)
		}
	}
	if err := s.CloseWith(zero, zero); err != nil {
		t.Fatal(err)
	}
	if res, err := s.Wait(); err != nil || !res.Finished || res.Committed != rounds {
		t.Fatalf("session did not finish: %+v, %v", res, err)
	}
}

// TestServeConnWire: the framed ingestion path end to end over an
// in-memory transport — syndrome layers in, committed frames out,
// bit-identical to the standalone stream.
func TestServeConnWire(t *testing.T) {
	const l, lanes, rounds, seed = 4, 48, 20, 7900
	cfg := toricPhenomenological(l, lanes, 0.025, 0.025)
	refX, refZ, _ := standaloneFrames(t, cfg, noise.Params{}, 0.025, 0.025, rounds, seed, true)

	srv := New(Config{Workers: 2})
	defer srv.Shutdown()
	client, serverSide := net.Pipe()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ServeConn(serverSide) }()

	conn := Dial(client)
	if err := conn.Open(cfg); err != nil {
		t.Fatal(err)
	}
	src := newFeed(cfg, noise.Params{}, 0.025, 0.025, seed)
	nc := l * l
	layerX := bits.NewVecs(nc, lanes)
	layerZ := bits.NewVecs(nc, lanes)
	for r := 0; r < rounds; r++ {
		src.NextLayers(layerX, layerZ)
		if err := conn.Round(layerX, layerZ); err != nil {
			t.Fatal(err)
		}
	}
	src.CloseLayers(layerX, layerZ)
	res, err := conn.Finish(layerX, layerZ)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("ServeConn: %v", err)
	}
	if !res.Finished || res.Rounds != rounds || res.Committed != rounds {
		t.Fatalf("wire result incomplete: %+v", res)
	}
	if !framesEqual(res.FramesX, res.FramesZ, refX, refZ) {
		t.Fatal("wire frames differ from standalone stream")
	}
}

// TestHist: the latency histogram counts, bounds its quantiles by the
// observed max, and orders them.
func TestHist(t *testing.T) {
	var h Hist
	for i := 0; i < 90; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 9; i++ {
		h.Observe(time.Millisecond)
	}
	h.Observe(time.Second)
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count %d", s.Count)
	}
	if s.Max != time.Second {
		t.Fatalf("max %v", s.Max)
	}
	if s.P50 > s.P90 || s.P90 > s.P99 || s.P99 > s.Max {
		t.Fatalf("quantiles out of order: %v %v %v %v", s.P50, s.P90, s.P99, s.Max)
	}
	if s.P50 < time.Microsecond || s.P50 > 2*time.Microsecond {
		t.Fatalf("p50 %v, want ~1µs", s.P50)
	}
	if s.P90 < time.Millisecond || s.P90 > 2*time.Millisecond {
		t.Fatalf("p90 %v, want ~1ms", s.P90)
	}
	// The 99th of 100 sorted samples is the 1s outlier; the quantile is
	// capped at the observed max rather than the bucket bound.
	if s.P99 != time.Second {
		t.Fatalf("p99 %v, want 1s", s.P99)
	}
	if len(s.Buckets) != 3 {
		t.Fatalf("%d non-empty buckets, want 3", len(s.Buckets))
	}
}
