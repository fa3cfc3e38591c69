package decoder

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by ResubmitOn on a Service that has been
// Closed. A closed service never panics on late submissions — the
// lifecycle contract a long-lived multi-tenant server depends on.
var ErrClosed = errors.New("decoder: service closed")

// errNoGraph is returned when a submission names no graph.
var errNoGraph = errors.New("decoder: no decoding graph for submission")

// Shot is one decode request to a Service: a defect list and optional
// known-erased edges (both in the graph's index space). Defects and
// Erased are read, never written; they must stay untouched until the
// batch that carries them completes. CorrBuf, when non-nil, is the
// caller-owned backing array the correction is appended into —
// resubmitting with the returned slice makes the steady state
// allocation-free. FirstPass, when non-nil, is the decode's first growth
// pass as Graph.AppendFirstPasses sweeps it, for an ascending defect
// list; it may sit in CorrBuf, which the decode reads it out of before
// writing the correction there. A plain decode past the isolated-pair
// density rule (Graph.Sparse) starts from it; every other decode ignores
// it.
type Shot struct {
	Defects   []int
	Erased    []int
	CorrBuf   []int32
	FirstPass []int32
}

// Service is a long-lived decode worker pool — the shape a
// control-system consumer calls at scale: batched shot submissions in,
// corrections out. Every submission names its graph (ResubmitOn), so
// one worker fleet serves many concurrent sessions with different
// window shapes. Each worker decodes every span it takes on its one
// UnionFind, re-bound to the span's graph (epoch-stamped arrays make
// reuse free, on one graph or across graphs), and batches are reusable,
// so a sustained stream of windows allocates nothing. Results are written
// into per-shot slots in submission order, which makes every batch's
// output bit-identical for any worker count, scheduling, or
// interleaving with other sessions' batches — the same determinism
// contract as the rest of the package. ResubmitOn may be called from
// any number of goroutines, before and after Close: post-Close
// submissions return ErrClosed, and Close itself is idempotent.
type Service struct {
	tasks  chan serviceSpan
	wg     sync.WaitGroup
	mu     sync.RWMutex // guards closed vs. in-flight sends on tasks
	closed bool

	// scratch holds each worker's one UnionFind, by worker id (its length
	// is the worker count): unbound and empty until the worker's first
	// span, then sized to the largest graph it has decoded. Only the
	// worker touches its instance.
	scratch []*UnionFind
}

// serviceSpan is one worker-sized slice of a submitted batch.
type serviceSpan struct {
	b      *Batch
	lo, hi int
}

// Batch is a reusable submission. Wait blocks until every shot is
// decoded and returns the corrections.
type Batch struct {
	g       *Graph // graph of the submission in flight
	shots   []Shot
	out     [][]int32
	pending atomic.Int64
	done    chan struct{} // one token per completed round trip
}

// NewBatch preallocates a batch sized for n shots. Submit it with
// Service.ResubmitOn, Wait for the results, and submit it again: the
// output slots and completion signal are recycled, so a warmed-up
// resubmit loop allocates nothing. A batch must not be resubmitted
// while still in flight.
func NewBatch(n int) *Batch {
	return &Batch{out: make([][]int32, n), done: make(chan struct{}, 1)}
}

// NewPool starts a decode pool of the given worker count (workers <= 0
// means GOMAXPROCS): submissions name their graph, and each worker
// decodes on its own scratch. This is the fleet shape of a multi-tenant
// decode server — one worker budget shared across every session's
// window graphs. Close releases the workers; a pool is meant to outlive
// many submissions.
func NewPool(workers int) *Service {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Service{tasks: make(chan serviceSpan, 4*workers)}
	for range workers {
		s.start()
	}
	return s
}

// start launches one more worker on a fresh scratch slot.
func (s *Service) start() {
	uf := new(UnionFind)
	s.scratch = append(s.scratch, uf)
	s.wg.Add(1)
	go s.worker(uf)
}

// Grow starts workers until the pool has at least n and returns its
// worker count; a closed pool stays closed. The count only shapes how
// batches split into spans, never a correction.
func (s *Service) Grow(n int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed && len(s.scratch) < n {
		s.start()
	}
	return len(s.scratch)
}

// ResubmitOn enqueues shots on a batch (NewBatch) against g, fanned out
// into worker spans, and returns immediately; call Wait on the batch for
// the corrections. Batches against different graphs share the same
// workers; each batch's output depends only on (graph, shots). The
// batch must be idle (freshly built or Waited on); its output slots are
// regrown only if the shot count exceeds the batch's capacity. An empty
// batch completes at once. After Close it returns ErrClosed.
func (s *Service) ResubmitOn(g *Graph, b *Batch, shots []Shot) error {
	if g == nil {
		return errNoGraph
	}
	b.g, b.shots = g, shots
	if cap(b.out) < len(shots) {
		b.out = make([][]int32, len(shots))
	} else {
		b.out = b.out[:len(shots)]
	}
	// The read lock pins the lifecycle: Close takes the write lock, so
	// the tasks channel cannot close mid-send and a post-Close submit
	// observes `closed` and returns cleanly instead of panicking.
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	if len(shots) == 0 {
		b.done <- struct{}{}
		return nil
	}
	// Span size balances queue traffic against tail latency: a few spans
	// per worker lets fast workers steal from slow ones.
	workers := len(s.scratch)
	span := (len(shots) + 4*workers - 1) / (4 * workers)
	spans := (len(shots) + span - 1) / span
	b.pending.Store(int64(spans))
	for lo := 0; lo < len(shots); lo += span {
		hi := lo + span
		if hi > len(shots) {
			hi = len(shots)
		}
		s.tasks <- serviceSpan{b: b, lo: lo, hi: hi}
	}
	return nil
}

// Wait blocks until the batch is fully decoded and returns the
// per-shot correction edge lists (in submission order).
func (b *Batch) Wait() [][]int32 {
	<-b.done
	return b.out
}

// Close shuts the pool down after all queued work drains. Submissions
// already accepted complete normally; later ones return ErrClosed.
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

// worker drains span tasks on its one UnionFind, bound to each span's
// graph for the span only: between spans the worker keeps the arrays but
// no graph, so a graph nothing else holds is freed.
func (s *Service) worker(uf *UnionFind) {
	defer s.wg.Done()
	for t := range s.tasks {
		uf.bind(t.b.g)
		for i := t.lo; i < t.hi; i++ {
			t.b.out[i] = uf.appendShot(&t.b.shots[i])
		}
		uf.g = nil
		if t.b.pending.Add(-1) == 0 {
			t.b.done <- struct{}{}
		}
	}
}
