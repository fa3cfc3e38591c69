package server

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"ftqc/internal/bits"
	"ftqc/internal/decoder"
	"ftqc/internal/noise"
	"ftqc/internal/spacetime"
	"ftqc/internal/stream"
	"ftqc/internal/surface"
)

var (
	// ErrDraining rejects new sessions and new rounds once Shutdown has
	// begun.
	ErrDraining = errors.New("server: draining, not accepting new work")
	// ErrSessionClosed rejects submissions to a closed session.
	ErrSessionClosed = errors.New("server: session closed")
	// ErrBacklog is the OverflowReject fast-fail: the session's ingest
	// queue is full.
	ErrBacklog = errors.New("server: session ingest queue full")
)

// OverflowPolicy picks what Submit does when a session's bounded ingest
// queue is full.
type OverflowPolicy int

const (
	// OverflowBlock stalls Submit until the decode frees a slot — the
	// lossless default (difference syndromes cannot tolerate a dropped
	// round).
	OverflowBlock OverflowPolicy = iota
	// OverflowReject returns ErrBacklog immediately and counts the
	// overflow; the producer decides how to shed load.
	OverflowReject
)

// Config shapes a decode server.
type Config struct {
	// Workers is the shared decode pool size (<= 0: GOMAXPROCS).
	Workers int
	// QueueDepth bounds each session's ingest queue in rounds
	// (<= 0: 16).
	QueueDepth int
	// Overflow is the per-session policy when the queue is full.
	Overflow OverflowPolicy
}

// SessionConfig shapes one logical-qubit session of a surface.Code.
// Window and Commit go through stream.WindowShape, the rule
// stream.Memory uses: a zero window takes the 2L default, a zero commit
// half the window, and a negative one is an error. WD > 0 selects the
// circuit-level (diagonal-edge) window. The PhenomenologicalCode
// and CircuitLevelCode helpers fill in default windows and weights.
type SessionConfig struct {
	Code  surface.Code
	Lanes int

	Window, Commit int
	WH, WV, WD     int

	// gate, when non-nil, stalls the session worker before each queued
	// round until the channel yields — a deterministic backpressure
	// hook for the tests.
	gate chan struct{}
}

// PhenomenologicalCode returns the standard session config for a code
// under phenomenological noise (data rate p, measurement rate q):
// default window, weights from spacetime.Weights. The benchmark binds
// this name; ROADMAP item 1b retires it.
func PhenomenologicalCode(code surface.Code, lanes int, p, q float64) SessionConfig {
	w, c := stream.DefaultWindow(code.Distance())
	wh, wv := spacetime.Weights(p, q, code.Distance(), w)
	return SessionConfig{Code: code, Lanes: lanes, Window: w, Commit: c, WH: wh, WV: wv}
}

// CircuitLevelCode returns the standard session config for a code
// under the circuit-level model P: default window, weights from
// spacetime.WeightsCircuit with the window as horizon. The benchmark
// binds this name; ROADMAP item 1b retires it.
func CircuitLevelCode(code surface.Code, lanes int, P noise.Params) SessionConfig {
	w, c := stream.DefaultWindow(code.Distance())
	wh, wv, wd := spacetime.WeightsCircuit(P, code.Distance(), w)
	return SessionConfig{Code: code, Lanes: lanes, Window: w, Commit: c, WH: wh, WV: wv, WD: wd}
}

// Server is the multi-tenant decode server: a shared decoder pool and
// the set of open sessions, whose windows come from stream's
// process-wide table. See the package documentation for the scheduling
// and backpressure contract.
type Server struct {
	cfg  Config
	pool *decoder.Service

	mu       sync.Mutex
	sessions map[uint64]*Session
	nextID   uint64
	draining bool
	wg       sync.WaitGroup

	// free is the scratch the finished wire sessions gave back, by shape.
	// Its entries are weak, as stream's window table is: a collection
	// frees an idle shape's scratch, and the scratch's cleanup drops the
	// dead entries.
	freeMu sync.Mutex
	free   map[scratchKey][]weak.Pointer[scratch]
}

// New starts a decode server.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	return &Server{
		cfg:      cfg,
		pool:     decoder.NewPool(cfg.Workers),
		sessions: make(map[uint64]*Session),
		free:     make(map[scratchKey][]weak.Pointer[scratch]),
	}
}

// scratchKey names the sessions that can share a scratch: one window
// (held weakly, so the key pins nothing) at one lane count.
type scratchKey struct {
	win   weak.Pointer[stream.Window]
	lanes int
}

// scratch is everything a session works in that the next session of its
// shape can reuse: the streaming decoder, the queue buffers (the closing
// round's included) and the commit-times ring, plus — built by the first
// ServeConn that serves it — the wire's decode planes, its round-message
// buffer and its frames-message buffer. Open takes one from the free
// list or builds it; ServeConn gives it back once its session has ended.
type scratch struct {
	key   scratchKey
	dec   *stream.Decoder
	msgs  []roundMsg
	times []time.Time // enqueue times by absolute round index (ring)

	layerX, layerZ      []bits.Vec
	roundBuf, framesBuf []byte
}

// takeScratch returns a reset free scratch of the session's shape, or
// builds one.
func (srv *Server) takeScratch(win *stream.Window, lanes int) *scratch {
	key := scratchKey{weak.Make(win), lanes}
	srv.freeMu.Lock()
	list := srv.free[key]
	for len(list) > 0 {
		sc := list[len(list)-1].Value()
		list = list[:len(list)-1]
		if sc != nil {
			srv.free[key] = list
			srv.freeMu.Unlock()
			sc.dec.Reset()
			return sc
		}
	}
	delete(srv.free, key)
	srv.freeMu.Unlock()

	nc, depth := win.Code().Checks(), srv.cfg.QueueDepth
	sc := &scratch{
		key:   key,
		dec:   stream.NewSessionOn(srv.pool, win).NewDecoder(lanes),
		msgs:  make([]roundMsg, depth+2),
		times: make([]time.Time, win.W+depth+4),
	}
	for i := range sc.msgs {
		sc.msgs[i] = roundMsg{x: bits.NewVecs(nc, lanes), z: bits.NewVecs(nc, lanes)}
	}
	runtime.AddCleanup(sc, srv.dropDead, key)
	return sc
}

// putScratch frees an ended session's scratch for the next session of
// its shape.
func (srv *Server) putScratch(sc *scratch) {
	srv.freeMu.Lock()
	srv.free[sc.key] = append(srv.free[sc.key], weak.Make(sc))
	srv.freeMu.Unlock()
}

// dropDead removes the entries a collection has freed from a shape's
// free list, and the shape once none is left.
func (srv *Server) dropDead(key scratchKey) {
	srv.freeMu.Lock()
	defer srv.freeMu.Unlock()
	list := slices.DeleteFunc(srv.free[key], func(wp weak.Pointer[scratch]) bool { return wp.Value() == nil })
	if len(list) == 0 {
		delete(srv.free, key)
	} else {
		srv.free[key] = list
	}
}

// Open starts a session. The returned Session is ready to Submit to;
// every session runs its own ingest worker against the shared pool. Its
// scratch comes from the server's free list for its window and lane
// count when a finished wire session left one there; an in-process
// session keeps it, since Wait's frames are views of it.
func (srv *Server) Open(cfg SessionConfig) (*Session, error) {
	if cfg.Lanes < 1 {
		return nil, fmt.Errorf("server: session needs at least one lane (got %d)", cfg.Lanes)
	}
	if cfg.Code == nil {
		return nil, fmt.Errorf("server: session needs a code")
	}
	var err error
	if cfg.Window, cfg.Commit, err = stream.WindowShape(cfg.Code.Distance(), cfg.Window, cfg.Commit); err != nil {
		return nil, err
	}
	// A drained server builds and interns nothing; the check is repeated
	// at registration, under the same lock hold that adds the session.
	srv.mu.Lock()
	draining := srv.draining
	srv.mu.Unlock()
	if draining {
		return nil, ErrDraining
	}
	win, err := stream.InternWindow(cfg.Code, cfg.Window, cfg.Commit, cfg.WH, cfg.WV, cfg.WD)
	if err != nil {
		return nil, err
	}
	sc := srv.takeScratch(win, cfg.Lanes)

	srv.mu.Lock()
	if srv.draining {
		srv.mu.Unlock()
		srv.putScratch(sc)
		return nil, ErrDraining
	}
	srv.nextID++
	s := newSession(srv, srv.nextID, cfg, win, sc)
	srv.sessions[s.id] = s
	srv.wg.Add(1)
	srv.mu.Unlock()
	go s.run()
	return s, nil
}

// remove drops a completed session from the registry.
func (srv *Server) remove(id uint64) {
	srv.mu.Lock()
	delete(srv.sessions, id)
	srv.mu.Unlock()
}

// Snapshot returns the stats of every open session, in id order — the
// observability API behind `ftqc sessions`.
func (srv *Server) Snapshot() []SessionStats {
	srv.mu.Lock()
	open := make([]*Session, 0, len(srv.sessions))
	for _, s := range srv.sessions {
		open = append(open, s)
	}
	srv.mu.Unlock()
	sort.Slice(open, func(i, j int) bool { return open[i].id < open[j].id })
	stats := make([]SessionStats, len(open))
	for i, s := range open {
		stats[i] = s.Stats()
	}
	return stats
}

// Shutdown drains the server: new sessions and new rounds are
// rejected, every open session flushes its queue and delivers its
// committed frames, then the worker pool is released. Idempotent.
func (srv *Server) Shutdown() {
	srv.mu.Lock()
	already := srv.draining
	srv.draining = true
	open := make([]*Session, 0, len(srv.sessions))
	for _, s := range srv.sessions {
		open = append(open, s)
	}
	srv.mu.Unlock()
	for _, s := range open {
		s.Close() // ErrSessionClosed from an already-closing session is fine
	}
	srv.wg.Wait()
	if !already {
		srv.pool.Close()
	}
}

// roundMsg is one queued ingest round (or the finish marker carrying
// the closing layers). Buffers belong to the session's scratch and are
// recycled through the session's free channel.
type roundMsg struct {
	x, z   []bits.Vec
	enq    time.Time
	finish bool
}

// SessionResult is what Wait delivers: the per-lane committed Pauli
// frames of both sectors and how much of the stream they cover.
// Finished sessions (CloseWith) cover every ingested round; drained
// sessions (Close/Shutdown) cover the committed prefix.
type SessionResult struct {
	FramesX, FramesZ []bits.Vec
	Rounds           int
	Committed        int
	Finished         bool
}

// SessionStats is one session's observability snapshot.
type SessionStats struct {
	ID                       uint64
	Code                     string
	L, Window, Commit, Lanes int
	Circuit                  bool
	Rounds                   uint64 // rounds ingested
	Committed                uint64 // rounds committed into frames
	Slides                   uint64
	Defects                  uint64 // defects ingested (both sectors, all lanes)
	DefectDensity            float64
	Overflows                uint64
	Latency                  HistSnapshot
	Closed                   bool
}

// Session is one live logical-qubit stream on the server.
type Session struct {
	id  uint64
	srv *Server
	cfg SessionConfig
	win *stream.Window // interned; held for the session's life

	nc, lanes int

	lifeMu sync.RWMutex // guards closed vs in-flight sends on in
	closed bool
	in     chan *roundMsg
	free   chan *roundMsg
	done   chan struct{}

	// Worker-owned pipeline state: the scratch's decoder and commit times.
	sc       *scratch
	finished bool

	// Stats mirrors: written by Submit/worker, read by Snapshot.
	ingested    atomic.Uint64
	committedCt atomic.Uint64
	slides      atomic.Uint64
	defects     atomic.Uint64
	overflows   atomic.Uint64
	closedFlag  atomic.Bool
	hist        Hist

	res SessionResult
	err error
}

func newSession(srv *Server, id uint64, cfg SessionConfig, win *stream.Window, sc *scratch) *Session {
	s := &Session{
		id:    id,
		srv:   srv,
		cfg:   cfg,
		win:   win,
		nc:    win.Code().Checks(),
		lanes: cfg.Lanes,
		in:    make(chan *roundMsg, srv.cfg.QueueDepth),
		free:  make(chan *roundMsg, len(sc.msgs)),
		done:  make(chan struct{}),
		sc:    sc,
	}
	for i := range sc.msgs {
		s.free <- &sc.msgs[i]
	}
	return s
}

// checkRound rejects layers that are not the session's shape — every
// plane of both layers — before they touch the lifecycle or a queue
// buffer.
func (s *Session) checkRound(what string, layerX, layerZ []bits.Vec) error {
	if len(layerX) != s.nc || len(layerZ) != s.nc {
		return fmt.Errorf("server: %s has %d/%d planes, want %d (%s d=%d)", what, len(layerX), len(layerZ), s.nc, s.cfg.Code.CodeName(), s.cfg.Code.Distance())
	}
	for c := range s.nc {
		if layerX[c].Len() != s.lanes || layerZ[c].Len() != s.lanes {
			return fmt.Errorf("server: %s plane %d has %d/%d lanes, session has %d", what, c, layerX[c].Len(), layerZ[c].Len(), s.lanes)
		}
	}
	return nil
}

// Submit ingests one round's difference layers (check-major planes of
// lane bits, exactly as stream.Decoder.Push takes them). It copies the
// planes into a recycled queue buffer, so the caller may reuse its
// slices immediately. Flow control follows the server's overflow
// policy; after Close/CloseWith it returns ErrSessionClosed.
func (s *Session) Submit(layerX, layerZ []bits.Vec) error {
	if err := s.checkRound("round", layerX, layerZ); err != nil {
		return err
	}
	s.lifeMu.RLock()
	defer s.lifeMu.RUnlock()
	if s.closed {
		return ErrSessionClosed
	}
	var msg *roundMsg
	if s.srv.cfg.Overflow == OverflowReject {
		select {
		case msg = <-s.free:
		default:
			s.overflows.Add(1)
			return ErrBacklog
		}
	} else {
		msg = <-s.free
	}
	def := 0
	for c := 0; c < s.nc; c++ {
		msg.x[c].CopyFrom(layerX[c])
		msg.z[c].CopyFrom(layerZ[c])
		def += msg.x[c].Weight() + msg.z[c].Weight()
	}
	msg.enq = time.Now()
	msg.finish = false
	if s.srv.cfg.Overflow == OverflowReject {
		select {
		case s.in <- msg:
		default:
			s.free <- msg
			s.overflows.Add(1)
			return ErrBacklog
		}
	} else {
		s.in <- msg
	}
	s.ingested.Add(1)
	s.defects.Add(uint64(def))
	return nil
}

// CloseWith finishes the stream gracefully: the closing (perfect
// round) layers settle the buffered tail exactly like
// stream.Decoder.Finish, and Wait then delivers frames covering every
// ingested round. Layers of the wrong shape are an error that leaves
// the session open.
func (s *Session) CloseWith(closingX, closingZ []bits.Vec) error {
	if err := s.checkRound("closing round", closingX, closingZ); err != nil {
		return err
	}
	s.lifeMu.Lock()
	if s.closed {
		s.lifeMu.Unlock()
		return ErrSessionClosed
	}
	s.closed = true
	s.closedFlag.Store(true)
	s.lifeMu.Unlock()
	// We are the only sender now; the finish marker is the last message.
	// Its buffer never waits: of the depth+2, the queue holds at most
	// depth and the worker one.
	msg := <-s.free
	msg.enq, msg.finish = time.Now(), true
	for c := 0; c < s.nc; c++ {
		msg.x[c].CopyFrom(closingX[c])
		msg.z[c].CopyFrom(closingZ[c])
	}
	s.in <- msg
	close(s.in)
	return nil
}

// Close stops the session without a closing round: queued rounds still
// decode, and Wait delivers the committed prefix — the drain path,
// also used by Server.Shutdown.
func (s *Session) Close() error {
	s.lifeMu.Lock()
	if s.closed {
		s.lifeMu.Unlock()
		return ErrSessionClosed
	}
	s.closed = true
	s.closedFlag.Store(true)
	s.lifeMu.Unlock()
	close(s.in)
	return nil
}

// Wait blocks until the session's worker has drained and returns the
// result. The frames are live views of the decoder's committed state;
// they are safe to read (and mutate) once Wait returns, and stay valid
// for as long as the caller holds them: an in-process session never
// gives its scratch back. Only ServeConn, which writes the frames out
// before it returns, recycles a session's scratch.
func (s *Session) Wait() (SessionResult, error) {
	<-s.done
	return s.res, s.err
}

// Stats assembles the session's observability snapshot.
func (s *Session) Stats() SessionStats {
	st := SessionStats{
		ID:        s.id,
		Code:      s.cfg.Code.CodeName(),
		L:         s.cfg.Code.Distance(),
		Window:    s.cfg.Window,
		Commit:    s.cfg.Commit,
		Lanes:     s.lanes,
		Circuit:   s.cfg.WD > 0,
		Rounds:    s.ingested.Load(),
		Committed: s.committedCt.Load(),
		Slides:    s.slides.Load(),
		Defects:   s.defects.Load(),
		Overflows: s.overflows.Load(),
		Latency:   s.hist.Snapshot(),
		Closed:    s.closedFlag.Load(),
	}
	if st.Rounds > 0 {
		st.DefectDensity = float64(st.Defects) / (float64(st.Rounds) * float64(2*s.nc) * float64(s.lanes))
	}
	return st
}

// run is the session worker: it drains the ingest queue through the
// streaming decoder, records commit latencies, and publishes the
// result.
func (s *Session) run() {
	defer s.srv.wg.Done()
	defer close(s.done)
	defer s.srv.remove(s.id)
	for msg := range s.in {
		if s.cfg.gate != nil {
			<-s.cfg.gate
		}
		if msg.finish {
			s.finish(msg)
			continue
		}
		s.ingest(msg)
		s.free <- msg
	}
	if !s.finished {
		s.capture(false)
	}
}

// ingest pushes one round and accounts for everything it committed.
func (s *Session) ingest(msg *roundMsg) {
	if s.err != nil {
		return
	}
	d := s.sc.dec
	s.sc.times[d.Rounds()%len(s.sc.times)] = msg.enq
	before := d.Committed()
	d.Push(msg.x, msg.z)
	if err := d.Err(); err != nil {
		s.err = err
		return
	}
	s.observeCommits(before, d.Committed())
	s.slides.Store(uint64(d.Slides()))
}

// finish settles the stream with the closing layers.
func (s *Session) finish(msg *roundMsg) {
	s.finished = true
	if s.err != nil {
		s.capture(false)
		return
	}
	d := s.sc.dec
	before := d.Committed()
	if d.Rounds() > 0 {
		d.Finish(msg.x, msg.z)
	}
	if err := d.Err(); err != nil {
		s.err = err
		s.capture(false)
		return
	}
	s.observeCommits(before, d.Committed())
	s.capture(true)
}

// observeCommits records commit latencies for rounds [from, to).
func (s *Session) observeCommits(from, to int) {
	if to <= from {
		return
	}
	now, times := time.Now(), s.sc.times
	for r := from; r < to; r++ {
		s.hist.Observe(now.Sub(times[r%len(times)]))
	}
	s.committedCt.Store(uint64(to))
}

// capture publishes the session result before done closes.
func (s *Session) capture(finished bool) {
	d := s.sc.dec
	s.res = SessionResult{Rounds: d.Rounds(), Committed: d.Committed(), Finished: finished}
	s.res.FramesX, s.res.FramesZ = d.Corrections()
}
