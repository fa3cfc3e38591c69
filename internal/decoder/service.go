package decoder

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by Submit/Decode on a Service that has been
// Closed. A closed service never panics on late submissions — the
// lifecycle contract a long-lived multi-tenant server depends on.
var ErrClosed = errors.New("decoder: service closed")

// errNoGraph is returned when an unbound pool is submitted to without a
// graph, or when a nil graph is passed explicitly.
var errNoGraph = errors.New("decoder: no decoding graph for submission")

// Shot is one decode request to a Service: a defect list and optional
// known-erased edges (both in the graph's index space). Defects and
// Erased are read, never written; they must stay untouched until the
// batch that carries them completes. CorrBuf, when non-nil, is the
// caller-owned backing array the correction is appended into —
// resubmitting with the returned slice makes the steady state
// allocation-free.
type Shot struct {
	Defects []int
	Erased  []int
	CorrBuf []int32
}

// Service is a long-lived decode worker pool — the shape a
// control-system consumer calls at scale: batched shot submissions in,
// corrections out. A service bound to one Graph (NewService) decodes
// that graph; an unbound pool (NewPool) multiplexes submissions against
// any number of graphs (SubmitOn), which is how one worker fleet serves
// many concurrent sessions with different window shapes. Workers hold
// per-graph UnionFind scratch across submissions (epoch-stamped arrays
// make reuse free), so a sustained stream of windows pays allocation
// only for the result slices. Results are written into per-shot slots
// in submission order, which makes every batch's output bit-identical
// for any worker count, scheduling, or interleaving with other
// sessions' batches — the same determinism contract as the rest of the
// package. Submit may be called from any number of goroutines, before
// and after Close: post-Close submissions return ErrClosed, and Close
// itself is idempotent.
type Service struct {
	g       *Graph // default graph; nil for an unbound pool
	workers int
	tasks   chan serviceSpan
	wg      sync.WaitGroup
	mu      sync.RWMutex // guards closed vs. in-flight sends on tasks
	closed  bool
	scratch sync.Map // *Graph → *sync.Pool of *UnionFind, one per served graph
}

// serviceSpan is one worker-sized slice of a submitted batch.
type serviceSpan struct {
	b      *Batch
	pool   *sync.Pool
	lo, hi int
}

// Batch is an in-flight submission. Wait blocks until every shot is
// decoded and returns the corrections. Batches made by Submit/SubmitOn
// are single-use; NewBatch builds a reusable one for the streaming hot
// path.
type Batch struct {
	shots   []Shot
	out     [][]int32
	pending atomic.Int64
	done    chan struct{}
	reuse   bool
}

// NewBatch preallocates a reusable batch sized for n shots. Submit it
// with Service.ResubmitOn, Wait for the results, and submit it again:
// the output slots and completion signal are recycled, so a warmed-up
// resubmit loop allocates nothing. A reusable batch must not be
// resubmitted while still in flight.
func NewBatch(n int) *Batch {
	return &Batch{out: make([][]int32, n), done: make(chan struct{}, 1), reuse: true}
}

// complete signals the batch's consumer: reusable batches hand over a
// token (the channel survives for the next round trip), single-use
// batches close.
func (b *Batch) complete() {
	if b.reuse {
		b.done <- struct{}{}
	} else {
		close(b.done)
	}
}

// NewService starts a decode pool of the given worker count bound to g
// (workers <= 0 means GOMAXPROCS). Close releases the workers; a
// Service is meant to outlive many submissions.
func NewService(g *Graph, workers int) *Service {
	s := NewPool(workers)
	s.g = g
	return s
}

// NewPool starts an unbound decode pool: submissions name their graph
// via SubmitOn/DecodeOn, and the pool keeps one scratch set per graph.
// This is the fleet shape of a multi-tenant decode server — one worker
// budget shared across every session's window graphs.
func NewPool(workers int) *Service {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Service{
		workers: workers,
		tasks:   make(chan serviceSpan, 4*workers),
	}
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go s.worker()
	}
	return s
}

// Graph returns the decoding graph the service is bound to (nil for an
// unbound pool).
func (s *Service) Graph() *Graph { return s.g }

// Workers returns the pool size.
func (s *Service) Workers() int { return s.workers }

// Submit enqueues a batch of shots against the bound graph and returns
// immediately; call Wait on the returned Batch for the corrections. An
// empty batch completes at once. After Close it returns ErrClosed.
func (s *Service) Submit(shots []Shot) (*Batch, error) {
	return s.SubmitOn(s.g, shots)
}

// SubmitOn is Submit against an explicit graph — the multi-graph entry
// point of an unbound pool. Batches against different graphs share the
// same workers; each batch's output depends only on (graph, shots).
func (s *Service) SubmitOn(g *Graph, shots []Shot) (*Batch, error) {
	b := &Batch{
		shots: shots,
		out:   make([][]int32, len(shots)),
		done:  make(chan struct{}),
	}
	if err := s.submit(g, b); err != nil {
		return nil, err
	}
	return b, nil
}

// ResubmitOn submits a reusable batch (NewBatch) against g — the
// allocation-free form of SubmitOn the streaming slide runs on. The
// batch must be idle (freshly built or Waited on); its output slots are
// regrown only if the shot count exceeds the batch's capacity.
func (s *Service) ResubmitOn(g *Graph, b *Batch, shots []Shot) error {
	b.shots = shots
	if cap(b.out) < len(shots) {
		b.out = make([][]int32, len(shots))
	} else {
		b.out = b.out[:len(shots)]
	}
	return s.submit(g, b)
}

// submit fans a prepared batch out into worker spans.
func (s *Service) submit(g *Graph, b *Batch) error {
	if g == nil {
		return errNoGraph
	}
	shots := b.shots
	if len(shots) == 0 {
		b.complete()
		return nil
	}
	// Span size balances queue traffic against tail latency: a few spans
	// per worker lets fast workers steal from slow ones.
	span := (len(shots) + 4*s.workers - 1) / (4 * s.workers)
	if span < 1 {
		span = 1
	}
	spans := (len(shots) + span - 1) / span
	b.pending.Store(int64(spans))
	pool := s.scratchFor(g)
	// The read lock pins the lifecycle: Close takes the write lock, so
	// the tasks channel cannot close mid-send and a post-Close submit
	// observes `closed` and returns cleanly instead of panicking.
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	for lo := 0; lo < len(shots); lo += span {
		hi := lo + span
		if hi > len(shots) {
			hi = len(shots)
		}
		s.tasks <- serviceSpan{b: b, pool: pool, lo: lo, hi: hi}
	}
	return nil
}

// GroupSub pairs one reusable batch (NewBatch) with the shots staged
// for it, for a coalesced submission via SubmitGroupOn.
type GroupSub struct {
	B     *Batch
	Shots []Shot
}

// SubmitGroupOn submits several reusable batches against one graph as a
// single fan-out: worker spans are sized from the combined shot count,
// so a fleet of small concurrent submissions (many sessions sliding the
// same window shape at once) costs one task transaction per span of the
// merged work instead of per session, and a worker amortizes one
// scratch checkout across several sessions' shots. Coalescing is
// invisible in the results: every shot's correction depends only on
// (graph, shot), each batch's outputs land in its own slots in its own
// submission order, and each batch completes independently — byte-for-
// byte what the same batches would produce through individual
// ResubmitOn calls, for any worker count or grouping.
//
// On a closed service no batch is staged or completed and every waiter
// must be failed by the caller (the error reaches all of them).
func (s *Service) SubmitGroupOn(g *Graph, subs []GroupSub) error {
	if g == nil {
		return errNoGraph
	}
	total := 0
	for i := range subs {
		total += len(subs[i].Shots)
	}
	span := (total + 4*s.workers - 1) / (4 * s.workers)
	if span < 1 {
		span = 1
	}
	pool := s.scratchFor(g)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	for i := range subs {
		b, shots := subs[i].B, subs[i].Shots
		b.shots = shots
		if cap(b.out) < len(shots) {
			b.out = make([][]int32, len(shots))
		} else {
			b.out = b.out[:len(shots)]
		}
		if len(shots) == 0 {
			b.complete()
			continue
		}
		spans := (len(shots) + span - 1) / span
		b.pending.Store(int64(spans))
		for lo := 0; lo < len(shots); lo += span {
			hi := lo + span
			if hi > len(shots) {
				hi = len(shots)
			}
			s.tasks <- serviceSpan{b: b, pool: pool, lo: lo, hi: hi}
		}
	}
	return nil
}

// scratchFor returns the per-graph UnionFind pool, creating it on first
// use. Sharing one pool per graph (rather than one instance per worker)
// keeps the grown-region arrays warm even when the scheduler migrates
// work between workers.
func (s *Service) scratchFor(g *Graph) *sync.Pool {
	if p, ok := s.scratch.Load(g); ok {
		return p.(*sync.Pool)
	}
	p, _ := s.scratch.LoadOrStore(g, &sync.Pool{New: func() any { return NewUnionFind(g) }})
	return p.(*sync.Pool)
}

// Decode is Submit followed by Wait: corrections for every shot, in
// submission order. corr[i] lists shot i's correction edges in the
// decoder's deterministic emit order.
func (s *Service) Decode(shots []Shot) ([][]int32, error) {
	return s.DecodeOn(s.g, shots)
}

// DecodeOn is Decode against an explicit graph.
func (s *Service) DecodeOn(g *Graph, shots []Shot) ([][]int32, error) {
	b, err := s.SubmitOn(g, shots)
	if err != nil {
		return nil, err
	}
	return b.Wait(), nil
}

// Wait blocks until the batch is fully decoded and returns the
// per-shot correction edge lists (in submission order).
func (b *Batch) Wait() [][]int32 {
	<-b.done
	return b.out
}

// Close shuts the pool down after all queued work drains. Submissions
// already accepted complete normally; later Submits return ErrClosed.
// Close is idempotent — closing twice (or from several goroutines) is
// a no-op after the first.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.tasks)
	s.mu.Unlock()
	s.wg.Wait()
}

// worker drains span tasks with the task's per-graph pooled UnionFind.
func (s *Service) worker() {
	defer s.wg.Done()
	for t := range s.tasks {
		uf := t.pool.Get().(*UnionFind)
		for i := t.lo; i < t.hi; i++ {
			shot := &t.b.shots[i]
			t.b.out[i] = uf.AppendCorrection(shot.CorrBuf[:0], shot.Defects, shot.Erased)
		}
		t.pool.Put(uf)
		if t.b.pending.Add(-1) == 0 {
			t.b.complete()
		}
	}
}
