package stream

import (
	"fmt"
	"runtime"
	"sync"

	"ftqc/internal/bits"
	"ftqc/internal/decoder"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/spacetime"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// Session pairs a window with the decoder.Service pool its Decoders
// submit to. A session built with a nil pool owns a private one and
// Close releases it; a session grafted onto an external multi-graph
// pool (the decode-server path, where one worker fleet serves many
// concurrent sessions) leaves that pool alone. Its Monte Carlo drains
// take their decoders from the process-wide free list.
type Session struct {
	win   *Window
	pool  *decoder.Service
	owned bool
}

// NewCodeSession is NewCodeCircuitSession over a phenomenological
// window (wd = 0). The benchmark binds this name; ROADMAP item 1b
// retires it in favour of NewWindow and NewSessionOn.
func NewCodeSession(code surface.Code, window, commit, wh, wv int) (*Session, error) {
	return NewCodeCircuitSession(code, window, commit, wh, wv, 0)
}

// NewCodeCircuitSession builds the window of a surface.Code (see
// NewWindow for the parameters) and starts a private decode pool. The
// benchmark binds this name; ROADMAP item 1b retires it in favour of
// NewWindow and NewSessionOn.
func NewCodeCircuitSession(code surface.Code, window, commit, wh, wv, wd int) (*Session, error) {
	win, err := NewWindow(code, window, commit, wh, wv, wd)
	if err != nil {
		return nil, err
	}
	return NewSessionOn(nil, win), nil
}

// NewSessionOn returns a session decoding a built window on a shared
// external pool (built with decoder.NewPool), which the session never
// closes. A nil pool starts a private one that Close releases.
func NewSessionOn(pool *decoder.Service, win *Window) *Session {
	s := &Session{win: win, pool: pool}
	if pool == nil {
		s.pool = decoder.NewPool(0)
		s.owned = true
	}
	return s
}

// Window returns the session's window structure.
func (s *Session) Window() *Window { return s.win }

// Close shuts the decode pool down if the session owns it; sessions on
// a shared pool leave it running for their siblings.
func (s *Session) Close() {
	if s.owned {
		s.pool.Close()
	}
}

// mcPool is the process-wide decode pool of the Monte Carlo drains,
// started by the first Memory call and never closed.
var mcPool struct {
	sync.Mutex
	pool *decoder.Service
}

// monteCarloPool returns the process-wide pool, grown to at least the
// caller's GOMAXPROCS workers.
func monteCarloPool() *decoder.Service {
	mcPool.Lock()
	defer mcPool.Unlock()
	if mcPool.pool == nil {
		mcPool.pool = decoder.NewPool(0)
	}
	mcPool.pool.Grow(runtime.GOMAXPROCS(0))
	return mcPool.pool
}

// sectorState is one sector's stream in a Decoder: the layer ring, the
// per-lane carries, the base-layer pivot and the committed frames, and
// (erasure-aware decoders only) the ring of lost-ancilla planes. The
// decode scratch both sectors use in turn — lane lists, shots, batch —
// is the Decoder's.
type sectorState struct {
	dual  bool       // star sector: decodes on the volumes' dual graphs
	ring  []bits.Vec // W·nc check-major layer planes, ring over slots
	ringW []uint64   // ring's backing words (bits.NewSlab), slot after slot
	carry []bits.Vec // per-lane cut defects at the base layer (nc bits)
	base  []bits.Vec // nc check-major planes: the carry pivoted, XOR the base layer (decode scratch)
	corr  []bits.Vec // per-lane running committed corrections (nq bits)

	lostRing []bits.Vec // W·nc check-major lost-measurement planes pushed by PushErased
}

// graph picks the sector's graph of a volume.
func (sec *sectorState) graph(vol *spacetime.Volume) *decoder.Graph {
	if sec.dual {
		return vol.DualGraph()
	}
	return vol.Graph()
}

// Decoder consumes one batch of lanes' difference layers round by round
// and maintains, per lane, a sliding window of the most recent layers,
// the carry defects cut at the last commit, and the running committed
// Pauli frame. All buffers are rings sized by the window — the resident
// footprint is O(L²·W) bits per lane however many rounds stream past.
//
// Every decode — a slide over the window volume, or Finish over the
// closing volume of the buffered height — runs the volume from scratch,
// the primal sector through to its commit and then the dual: defect
// lists read off the planes, one union-find decode per lane, commit and
// carry. The two sectors take turns on one set of lane lists, so a
// decoder holds one sector's decode scratch, not two.
type Decoder struct {
	win    *Window
	pool   *decoder.Service
	lanes  int
	nq, nc int // data qubits and checks per layer of the window's code
	span   int // ring words per slot: nc planes of lane words

	base     int // absolute index of the oldest buffered layer (= rounds committed)
	filled   int // buffered layers
	head     int // ring slot of the oldest buffered layer
	slides   int
	defects  uint64 // defects observed across both sectors (window decodes + Finish)
	finished bool
	err      error // terminal failure: shared pool closed underneath us, or a closing round no code emits

	// Side-information decoding state (NewDecoderOpts): the selected
	// passes and — for erasure-aware decoders — the shared ring of
	// erased-data planes; for correlated ones the repricing mask scratch
	// (window edge ids; also covers every closing volume, h ≤ W).
	opts    spacetime.DecodeOptions
	eraRing []bits.Vec // W·nq qubit-major erased-data planes, both sectors
	emask   bits.Vec   // correlated repricing mask scratch

	sx, sz sectorState

	// Decode scratch of whichever sector is decoding: per-lane defect,
	// erased-edge and correction lists (bufCap, eraCap and bufCap entries
	// per lane, carved from one slab each), one batch of shots, and the
	// decode's layers of planes as the first-pass sweep reads them.
	defbuf         [][]int
	erabuf         [][]int
	corrbuf        [][]int32
	shots          []decoder.Shot
	bat            *decoder.Batch
	bufCap, eraCap int
	layers         [][]bits.Vec

	// A Monte Carlo drain's decoder keeps, across the drains it serves
	// from the free list, the class it returns to, the planes its feed
	// emits into (the erasure planes built by the first Erasing feed),
	// the feed Memory last built for it, of model feedModel, and the
	// matcher of its exact closes.
	class              drainClass
	layerX, layerZ     []bits.Vec
	eraH, lostX, lostZ []bits.Vec
	feed               spacetime.ResettableFeed
	feedModel          spacetime.Model
	matcher            decoder.Matcher
}

// NewDecoder returns a streaming decoder for `lanes` parallel shots,
// drawing on the session's decode pool.
func (s *Session) NewDecoder(lanes int) *Decoder {
	return s.NewDecoderOpts(lanes, spacetime.DecodeOptions{})
}

// NewDecoderOpts is NewDecoder with the side-information passes of
// spacetime.DecodeOptions enabled. Erasure-aware decoders keep the
// planes PushErased carries (a Push round erases nothing); correlated
// decoders reprice the dual window from the primal correction every
// slide.
func (s *Session) NewDecoderOpts(lanes int, opts spacetime.DecodeOptions) *Decoder {
	return s.win.newDecoder(s.pool, lanes, opts)
}

// newDecoder builds a decoder of the window submitting to pool.
func (w *Window) newDecoder(pool *decoder.Service, lanes int, opts spacetime.DecodeOptions) *Decoder {
	nq, nc := w.Code().Qubits(), w.Code().Checks()
	// Every buffer is sized here, once, for the tallest decode there is —
	// W buffered layers plus the closing one — so neither a slide nor
	// Finish allocates.
	d := &Decoder{win: w, pool: pool, lanes: lanes, nq: nq, nc: nc, span: nc * ((lanes + 63) / 64), opts: opts}
	// Erased-edge lists exist only for side-information decoders; like the
	// defect buffers below they are sized once, at one entry per eight
	// window edges (a leak rate of 0.01 per gate erases about a tenth of a
	// window), so a plain decoder carries none and an erasure-fed one does
	// not ratchet.
	if opts.ErasureAware || opts.Correlated {
		d.eraCap = w.Graph().Edges() / 8
	}
	if opts.Correlated {
		d.emask = bits.NewVec(w.Graph().Edges())
	}
	if opts.ErasureAware {
		d.eraRing = bits.NewVecs(w.W*nq, lanes)
	}
	// Defect and correction buffers are sized once from the window shape
	// — one entry per eight detectors, several times any operating
	// density, with a floor for small windows, whose counts fluctuate by
	// a larger fraction of their mean, but never past half the tallest
	// decode's detectors (a syndrome that dense is noise) — so the
	// footprint does not ratchet up whenever a denser window arrives. A
	// window past that still decodes; its lane's buffers grow.
	d.bufCap = max(w.W*nc/8, min(64, (w.W+1)*nc/2))
	d.defbuf = laneBufs[int](lanes, d.bufCap)
	d.erabuf = laneBufs[int](lanes, d.eraCap)
	d.corrbuf = laneBufs[int32](lanes, d.bufCap)
	d.shots = make([]decoder.Shot, lanes)
	d.bat = decoder.NewBatch(lanes)
	d.layers = make([][]bits.Vec, 0, w.W+1)
	for _, sec := range [2]*sectorState{&d.sx, &d.sz} {
		sec.ring, sec.ringW = bits.NewSlab(w.W*nc, lanes)
		sec.carry = bits.NewVecs(lanes, nc)
		sec.base = bits.NewVecs(nc, lanes)
		sec.corr = bits.NewVecs(lanes, nq)
		if opts.ErasureAware {
			sec.lostRing = bits.NewVecs(w.W*nc, lanes)
		}
	}
	d.sz.dual = true
	return d
}

// laneBufs returns `lanes` empty buffers of capacity c each, carved
// from one allocation (one make per lane was most of a small window's
// build); a buffer that outgrows its share regrows on its own, and the
// slab stays resident (laneBytes).
func laneBufs[T any](lanes, c int) [][]T {
	slab := make([]T, lanes*c)
	bufs := make([][]T, lanes)
	for i := range bufs {
		bufs[i] = slab[i*c : i*c : (i+1)*c]
	}
	return bufs
}

// laneBytes is the resident size of laneBufs buffers of c elements of
// `size` bytes each: the slab, plus every buffer that outgrew its share
// (a regrown buffer's capacity is past c).
func laneBytes[T any](bufs [][]T, c, size int) int {
	n := len(bufs) * c
	for _, b := range bufs {
		if cap(b) > c {
			n += cap(b)
		}
	}
	return n * size
}

// Reset puts a decoder back in NewDecoderOpts's state, wherever its
// stream stopped — finished, cut mid-stream or failed — so its next
// stream commits what a fresh decoder's would. Ring slots and lists need
// no clearing: each is written before it is read. The Monte Carlo drains'
// free list and the decode server's session scratch reset through it.
func (d *Decoder) Reset() {
	d.base, d.filled, d.head, d.slides, d.defects, d.finished, d.err = 0, 0, 0, 0, 0, false, nil
	for _, sec := range [2]*sectorState{&d.sx, &d.sz} {
		for lane := range sec.carry {
			sec.carry[lane].Clear()
			sec.corr[lane].Clear()
		}
	}
}

// Rounds returns how many noisy rounds the decoder has ingested.
func (d *Decoder) Rounds() int { return d.base + d.filled }

// Committed returns how many rounds have been committed into the
// running frames (after a successful Finish, every ingested round).
func (d *Decoder) Committed() int { return d.base }

// Filled returns how many rounds are buffered but not yet committed.
func (d *Decoder) Filled() int { return d.filled }

// Slides returns how many window slides (open-window decodes) have run.
func (d *Decoder) Slides() int { return d.slides }

// DefectsObserved returns the total defect count fed to the decoder so
// far, summed over both sectors and all lanes (density = defects per
// detector per round per lane).
func (d *Decoder) DefectsObserved() uint64 { return d.defects }

// Err reports a terminal pipeline failure: the shared decode pool was
// closed underneath a decode, or Finish was handed a closing round that
// is not a syndrome of the code. Push and Finish become no-ops once it
// is set; the committed frames remain valid up to Committed() rounds.
func (d *Decoder) Err() error { return d.err }

// Push ingests one round's difference layers (check-major, one vector
// of lane bits per check, as emitted by a spacetime.LayerFeed): a round
// with nothing erased, so it mixes freely with PushErased rounds. When
// the window is full the oldest Commit rounds are decoded and committed
// first.
func (d *Decoder) Push(layerX, layerZ []bits.Vec) {
	d.push(layerX, layerZ, nil, nil, nil)
}

// push slides if the window is full and ingests one round's difference
// layers and — for an erasure-aware decoder — its erasure planes (nil
// planes: nothing erased).
func (d *Decoder) push(layerX, layerZ, eraH, lostX, lostZ []bits.Vec) {
	w, nc := d.win, d.nc
	if d.err != nil {
		return
	}
	if d.finished {
		panic("stream: Push after Finish")
	}
	if len(layerX) != nc || len(layerZ) != nc {
		panic("stream: layer plane count mismatch")
	}
	if d.filled == w.W {
		if d.slide(); d.err != nil {
			return
		}
	}
	slot := d.slot(d.filled)
	bits.PackPlanes(d.sx.ringW[slot*d.span:][:d.span], layerX, d.lanes)
	bits.PackPlanes(d.sz.ringW[slot*d.span:][:d.span], layerZ, d.lanes)
	d.filled++
	if d.eraRing != nil {
		keepPlanes(d.eraRing[slot*d.nq:][:d.nq], eraH)
		keepPlanes(d.sx.lostRing[slot*nc:][:nc], lostX)
		keepPlanes(d.sz.lostRing[slot*nc:][:nc], lostZ)
	}
}

// slide decodes the full window in both sectors over the open-window
// volume, commits the correction below the commit boundary into the
// running frames, records the cut defects as the next window's carry,
// and advances the ring by Commit layers.
func (d *Decoder) slide() {
	w := d.win
	if d.decode(w.vol, w.W, w.Commit, nil, nil); d.err != nil {
		return
	}
	d.head += w.Commit
	if d.head >= w.W {
		d.head -= w.W
	}
	d.filled -= w.Commit
	d.base += w.Commit
	d.slides++
}

// Finish ingests the closing perfect-round difference layers and
// decodes the remaining buffer as an ordinary closed volume (height =
// buffered rounds) on the slide's own path — the commit boundary past
// the closing layer, so everything commits and nothing is cut. When no
// slide has fired — W ≥ total rounds — this is exactly the whole-volume
// decode, bit for bit: same canonical erased lists, same primal→dual
// order. The decoder cannot be pushed to afterwards.
func (d *Decoder) Finish(layerX, layerZ []bits.Vec) {
	if d.err != nil {
		return
	}
	if d.finished {
		panic("stream: Finish called twice")
	}
	if d.filled == 0 {
		panic("stream: Finish before any round")
	}
	d.finished = true
	h := d.filled
	if d.decode(d.win.closingVolume(h), h, h+1, layerX, layerZ); d.err != nil {
		return
	}
	d.base += h
	d.filled = 0
}

// decode runs the oldest h buffered layers — followed by the closing
// planes, when there are any — over vol and commits the correction
// below layer `commit`. Every decoder decodes its sectors in turn on the
// one set of lane lists, the primal through to its commit and then the
// dual, which a correlated decoder reprices from the primal correction
// the lists still hold. Every sector decode takes the one path, silent
// or not: lists, pool, commit. A dual that fails flips the primal's
// commit back out, so Err leaves both frames at Committed() rounds.
func (d *Decoder) decode(vol *spacetime.Volume, h, commit int, closeX, closeZ []bits.Vec) {
	for i, sec := range [2]*sectorState{&d.sx, &d.sz} {
		closing := [2][]bits.Vec{closeX, closeZ}[i]
		if d.prepSector(sec, vol, h, closing); d.err != nil {
			if sec.dual {
				d.commitLanes(&d.sx, vol, commit)
			}
			return
		}
		copy(d.corrbuf, d.bat.Wait())
		d.commitLanes(sec, vol, commit)
	}
}

// prepSector reads every lane's defect list off one sector's h buffered
// layers (and closing planes) and submits them to the decode pool on the
// sector's graph of vol, each plain lane with its first growth pass when
// the batch swept one (giveFirstPasses).
//
// Side-information passes: an erasure-aware decoder reads every lane's
// canonical erased list straight off the sector's erasure rings
// (Volume.AppendErased, layer by layer in window order); an erasure-free
// window leaves them empty, so its lanes decode plain. A correlated dual
// decode adds the counterpart edges of the primal correction in the
// correction lists to the erased set (Volume.Reprice).
func (d *Decoder) prepSector(sec *sectorState, vol *spacetime.Volume, h int, closing []bits.Vec) {
	g := sec.graph(vol)
	closed := g.Closed()
	d.defectLists(sec, h, closing)
	for lane := range d.erabuf {
		d.erabuf[lane] = d.erabuf[lane][:0]
	}
	if d.eraRing != nil {
		vol.AppendErased(d.erabuf, func(t int) ([]bits.Vec, []bits.Vec) {
			slot := d.slot(t)
			return d.eraRing[slot*d.nq:][:d.nq], sec.lostRing[slot*d.nc:][:d.nc]
		})
	}
	for lane := 0; lane < d.lanes; lane++ {
		if closed && len(d.defbuf[lane])%2 == 1 {
			// Only reachable with layers no source of this code emits
			// (a served stream is untrusted): growth could never finish.
			d.err = fmt.Errorf("stream: lane %d closes on an odd number of defects, which is not a syndrome of a closed code", lane)
			return
		}
		d.defects += uint64(len(d.defbuf[lane]))
		if d.opts.Correlated && sec.dual {
			d.erabuf[lane] = vol.Reprice(d.erabuf[lane], d.corrbuf[lane], d.emask)
		}
	}
	given := d.giveFirstPasses(sec, g, h, closing)
	for lane := range d.shots {
		shot := decoder.Shot{Defects: d.defbuf[lane], Erased: d.erabuf[lane], CorrBuf: d.corrbuf[lane]}
		if given && len(shot.Erased) == 0 {
			shot.FirstPass = shot.CorrBuf
		}
		d.shots[lane] = shot
	}
	if err := d.pool.ResubmitOn(g, d.bat, d.shots); err != nil {
		d.err = err
	}
}

// giveFirstPasses sweeps the first growth pass of every lane's plain
// decode at once into the correction lists (Graph.AppendFirstPasses),
// over the planes the defect lists were read from, in place — the
// pivoted base layer, the ring slots and the closing planes — and
// reports whether it did: only when some plain lane is past the
// isolated-pair density rule, whose decode grows from scratch. It runs
// after Reprice, which reads the primal correction out of the lists.
func (d *Decoder) giveFirstPasses(sec *sectorState, g *decoder.Graph, h int, closing []bits.Vec) bool {
	dense := false
	for lane, defects := range d.defbuf {
		dense = dense || len(d.erabuf[lane]) == 0 && !g.Sparse(len(defects))
	}
	if !dense {
		return false
	}
	layers := append(d.layers[:0], sec.base)
	for t := 1; t < h; t++ {
		layers = append(layers, sec.ring[d.slot(t)*d.nc:][:d.nc])
	}
	if len(closing) > 0 {
		layers = append(layers, closing)
	}
	d.layers = layers
	for lane := range d.corrbuf {
		d.corrbuf[lane] = d.corrbuf[lane][:0]
	}
	g.AppendFirstPasses(d.corrbuf, layers)
	return true
}

// commitLanes commits every lane's correction in the correction lists
// below layer `commit` of vol into the sector's frames and carries.
func (d *Decoder) commitLanes(sec *sectorState, vol *spacetime.Volume, commit int) {
	for lane, corr := range d.corrbuf {
		carry := sec.carry[lane]
		carry.Clear()
		vol.CommitEdges(corr, commit, sec.dual, sec.corr[lane], carry)
	}
}

// slot returns the ring slot of buffered layer t (0 = oldest).
func (d *Decoder) slot(t int) int { return (d.head + t) % d.win.W }

// defectLists builds every lane's ascending defect list (detector =
// layer·nc + check) straight from the planes, in layer order: the first
// h buffered layers in place from the ring, then the closing planes.
// Only the per-lane carry is pivoted, to join the base layer; layers
// 1…h−1 are read off the ring's words in at most two runs.
func (d *Decoder) defectLists(sec *sectorState, h int, closing []bits.Vec) {
	nc, span, words := d.nc, d.span, d.span/d.nc
	for lane := range d.defbuf {
		d.defbuf[lane] = d.defbuf[lane][:0]
	}
	bits.TransposePlanes(sec.base, sec.carry)
	for c, p := range sec.ring[d.head*nc:][:nc] {
		sec.base[c].Xor(p)
	}
	bits.AppendPlaneSupports(d.defbuf, sec.base, 0)
	first := min(h-1, d.win.W-d.head-1) // layers 1… before the wrap, then the rest
	bits.AppendSlabSupports(d.defbuf, sec.ringW[(d.head+1)*span:][:first*span], words, nc)
	bits.AppendSlabSupports(d.defbuf, sec.ringW[:(h-1-first)*span], words, (1+first)*nc)
	bits.AppendPlaneSupports(d.defbuf, closing, h*nc)
}

// Corrections returns the per-lane committed correction frames of the
// two sectors (valid any time; complete after Finish).
func (d *Decoder) Corrections() (x, z []bits.Vec) { return d.sx.corr, d.sz.corr }

// FootprintBytes sums the decoder's resident buffers — the number that
// must stay flat as rounds stream past (the constant-memory acceptance
// criterion, asserted in the tests and reported by the benchmarks).
func (d *Decoder) FootprintBytes() int {
	vecs := func(vs []bits.Vec) int {
		n := 0
		for _, v := range vs {
			n += v.Words() * 8
		}
		return n
	}
	n := vecs(d.eraRing) + d.emask.Words()*8
	n += laneBytes(d.defbuf, d.bufCap, 8) + laneBytes(d.erabuf, d.eraCap, 8) + laneBytes(d.corrbuf, d.bufCap, 4)
	for _, sec := range [2]*sectorState{&d.sx, &d.sz} {
		n += vecs(sec.ring) + vecs(sec.carry) + vecs(sec.base) + vecs(sec.corr)
		n += vecs(sec.lostRing)
	}
	return n
}

// BatchMemoryFrom runs Lanes() streaming shots of the noisy-extraction
// memory over this session's window with the selected decode options:
// the feed emits difference layers round by round, the sliding window
// commits as it goes, and one perfect closing round settles the tail.
// An Erasing feed's rounds go through NextLayersErased and PushErased,
// every other feed's through NextLayers and Push. surface.LayerSource and
// surface.CircuitSource stream through the same window machinery; the
// feed must be fresh. Returns the per-lane logical failure masks of the
// two sectors.
func (s *Session) BatchMemoryFrom(src spacetime.LayerFeed, rounds int, opts spacetime.DecodeOptions) (failX, failZ bits.Vec) {
	spacetime.CheckFeed(src, s.win.Code())
	d := s.win.takeDecoder(s.pool, src.Lanes(), opts)
	defer putDecoder(d)
	return s.drain(d, src, rounds, toric.DecoderUnionFind)
}

// drain streams a fresh feed's rounds through a drain's decoder into its
// own layer planes (and, for an Erasing feed, erasure planes), closes
// the stream — Finish, or match for the exact matcher — and returns the
// failure masks.
func (s *Session) drain(d *Decoder, src spacetime.LayerFeed, rounds int, kind toric.DecoderKind) (failX, failZ bits.Vec) {
	layerX, layerZ := d.layerX, d.layerZ
	var eraH, lostX, lostZ []bits.Vec
	erasing := src.Erasing()
	if erasing {
		if d.eraH == nil {
			d.eraH = bits.NewVecs(d.nq, d.lanes)
			d.lostX = bits.NewVecs(d.nc, d.lanes)
			d.lostZ = bits.NewVecs(d.nc, d.lanes)
		}
		eraH, lostX, lostZ = d.eraH, d.lostX, d.lostZ
	}
	for t := 0; t < rounds; t++ {
		if erasing {
			src.NextLayersErased(layerX, layerZ, eraH, lostX, lostZ)
		} else {
			src.NextLayers(layerX, layerZ)
		}
		d.push(layerX, layerZ, eraH, lostX, lostZ)
	}
	src.CloseLayers(layerX, layerZ)
	if kind == toric.DecoderExact {
		d.match(layerX, layerZ)
	} else {
		d.Finish(layerX, layerZ)
	}
	if err := d.Err(); err != nil {
		// Memory's pool is never closed, so a mid-run closure is a caller
		// closing its own session's pool under a drain, not an operating
		// condition.
		panic(err)
	}
	return s.failureMasks(src, d)
}

// match is Finish for the exact matcher, on a stream that never slid:
// each lane's ascending defect lists, read off the planes as Finish
// reads them, are matched over the closing volume (Volume.Match), the
// primal sector and then the dual, each matching XOR-ed into the lane's
// frame.
func (d *Decoder) match(closeX, closeZ []bits.Vec) {
	h := d.filled
	vol := d.win.closingVolume(h)
	for i, sec := range [2]*sectorState{&d.sx, &d.sz} {
		d.defectLists(sec, h, [2][]bits.Vec{closeX, closeZ}[i])
		for lane, defects := range d.defbuf {
			d.defects += uint64(len(defects))
			vol.Match(defects, sec.dual, &d.matcher, sec.corr[lane])
		}
	}
	d.base, d.filled, d.finished = h, 0, true
}

// source returns the drain decoder's feed of model m over code, reset
// onto smp, or — when the decoder last fed another model, or none — a
// new one it keeps for the next drain.
func (d *Decoder) source(code surface.Code, m spacetime.Model, smp frame.Sampler) spacetime.LayerFeed {
	if d.feed != nil && d.feedModel == m {
		d.feed.Reset(smp)
		return d.feed
	}
	d.feed, d.feedModel = m.Source(code, d.lanes, smp), m
	return d.feed
}

// failureMasks compares the logical parities of the accumulated error
// chains against the committed correction frames. The total correction
// cancels every defect, so the residual is always a closed (or
// boundary-to-boundary) cycle and the parities decide failure.
func (s *Session) failureMasks(src spacetime.LayerFeed, d *Decoder) (failX, failZ bits.Vec) {
	lanes := d.lanes
	code := s.win.Code()
	pX1 := bits.NewVec(lanes)
	pX2 := bits.NewVec(lanes)
	pZ1 := bits.NewVec(lanes)
	pZ2 := bits.NewVec(lanes)
	src.Windings(pX1, pX2, pZ1, pZ2)
	failX = bits.NewVec(lanes)
	failZ = bits.NewVec(lanes)
	for lane := 0; lane < lanes; lane++ {
		c1, c2 := code.LogicalParity(false, d.sx.corr[lane])
		if pX1.Get(lane) != c1 || pX2.Get(lane) != c2 {
			failX.Set(lane, true)
		}
		c1, c2 = code.LogicalParity(true, d.sz.corr[lane])
		if pZ1.Get(lane) != c1 || pZ2.Get(lane) != c2 {
			failZ.Set(lane, true)
		}
	}
	return failX, failZ
}

// Result summarizes a memory Monte Carlo run, streaming or whole-volume
// (VolumeMemory: a window that never slides).
type Result struct {
	Code           string // code family ("toric", "planar", "rotated")
	L, T           int
	Window, Commit int // 0, 0 for a whole-volume run (VolumeMemory), which slides no window
	P, Q           float64
	Pe             float64 // leak rate, per round or (circuit) per gate; 0 when unused
	Qe             float64 // lost-measurement rate per round; 0 when unused
	Samples        int
	FailX          int // bit-flip (plaquette-sector) logical failures
	FailZ          int // phase-flip (star-sector) logical failures
	Failures       int // shots failing in either sector
}

// FailRate returns the either-sector logical failure probability.
func (r Result) FailRate() float64 { return float64(r.Failures) / float64(r.Samples) }

// FailRateX returns the bit-flip sector failure probability.
func (r Result) FailRateX() float64 { return float64(r.FailX) / float64(r.Samples) }

// FailRateZ returns the phase-flip sector failure probability.
func (r Result) FailRateZ() float64 { return float64(r.FailZ) / float64(r.Samples) }

// DefaultWindow returns the default window and commit sizes for
// distance L: W = 2L buffered rounds (enough context that windowed
// accuracy matches whole-volume decoding) with a half-window commit.
func DefaultWindow(l int) (window, commit int) { return 2 * l, l }

// checkMemory is the constructor-error gate of the memory experiments:
// a malformed model, a missing code, an empty horizon or sample, or
// decode options on a phenomenological model without an erasure
// channel (its source is not Erasing, so they would have nothing to act
// on) is an error, never a panic deep inside a decode.
func checkMemory(code surface.Code, rounds int, m spacetime.Model, opts spacetime.DecodeOptions, samples int) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if code == nil {
		return fmt.Errorf("stream: memory experiment needs a code")
	}
	if rounds < 1 {
		return fmt.Errorf("stream: memory experiment needs at least one noisy round (got rounds=%d)", rounds)
	}
	if samples < 1 {
		return fmt.Errorf("stream: memory experiment needs at least one sample (got samples=%d)", samples)
	}
	if _, _, pe, qe := m.Rates(); !m.CircuitLevel() && pe == 0 && qe == 0 && opts != (spacetime.DecodeOptions{}) {
		return fmt.Errorf("stream: decode options on a phenomenological model need an erasure channel (pe or qe > 0)")
	}
	return nil
}

// Memory runs the streaming noisy-extraction memory experiment of any
// surface.Code under the model m: `rounds` noisy rounds from the
// model's source stream through a sliding window of `window` layers
// committing `commit` rounds per slide (WindowShape fills in a zero),
// on the one Monte Carlo driver (Window.memory). A model with an
// erasure channel has an Erasing source and drains through PushErased —
// with ErasureAware its erased lanes decode with their located faults —
// and correlated runs reprice the dual window each slide; every other
// run drains through Push. The weights are priced over `rounds` for a
// phenomenological model and over the window for a circuit-level one,
// whose horizon only caps the horizontal weight (WeightsCircuit):
// binding under measurement-dominated noise, never under uniform noise.
// The result is a pure function of (samples, seed) — never of
// GOMAXPROCS. A malformed model, an invalid window shape or horizon, or
// decode options on a phenomenological model without an erasure
// channel is a constructor error.
func Memory(code surface.Code, rounds int, m spacetime.Model, window, commit int, opts spacetime.DecodeOptions, samples int, seed uint64) (Result, error) {
	if err := checkMemory(code, rounds, m, opts, samples); err != nil {
		return Result{}, err
	}
	window, commit, err := WindowShape(code.Distance(), window, commit)
	if err != nil {
		return Result{}, err
	}
	horizon := rounds
	if m.CircuitLevel() {
		horizon = window
	}
	wh, wv, wd := m.Weights(code.Distance(), horizon)
	win, err := InternWindow(code, window, commit, wh, wv, wd)
	if err != nil {
		return Result{}, err
	}
	return win.memory(rounds, m, toric.DecoderUnionFind, opts, samples, seed), nil
}

// VolumeMemory runs the whole-volume memory experiment: each shot's
// rounds decoded at once over the code's closed space-time volume, as
// the one Monte Carlo driver over a window that never slides
// (W = max(rounds, 2), commit 1), whose close decodes the closed volume
// bit for bit. Union-find closes with Finish, erasure channels and
// decode options included, its weights priced as Memory prices them (a
// one-round circuit run so prices over two layers, dearer than one
// under measurement-dominated noise); DecoderExact closes with the
// blossom matcher, its weights priced over `rounds`, on the torus only
// and without erasure channels or decode options. Either kind's Result
// has Window = Commit = 0. A kind that names no decoder, a run the
// decoder cannot price and everything Memory refuses are errors.
func VolumeMemory(code surface.Code, rounds int, m spacetime.Model, kind toric.DecoderKind, opts spacetime.DecodeOptions, samples int, seed uint64) (Result, error) {
	if err := kind.Validate(); err != nil {
		return Result{}, err
	}
	if err := checkMemory(code, rounds, m, opts, samples); err != nil {
		return Result{}, err
	}
	horizon := rounds
	if kind == toric.DecoderExact {
		if _, torus := code.(*toric.Lattice); !torus {
			return Result{}, fmt.Errorf("stream: exact matching prices pairs with the torus metric; %s decodes with union-find", code.CodeName())
		}
		if _, _, pe, qe := m.Rates(); pe > 0 || qe > 0 || opts != (spacetime.DecodeOptions{}) {
			return Result{}, fmt.Errorf("stream: erasure channels and decode options decode with union-find only")
		}
	} else if m.CircuitLevel() {
		horizon = max(rounds, 2)
	}
	wh, wv, wd := m.Weights(code.Distance(), horizon)
	win, err := InternWindow(code, max(rounds, 2), 1, wh, wv, wd)
	if err != nil {
		return Result{}, err
	}
	r := win.memory(rounds, m, kind, opts, samples, seed)
	r.Window, r.Commit = 0, 0
	return r, nil
}

// memory is the one Monte Carlo driver: samples shots of m's rounds
// over the window, fanned out over the CPUs in deterministic
// seed-per-chunk batches, each chunk streamed through a free decoder of
// the window's class and closed by kind (drain). The window comes from
// the process-wide table (InternWindow), so a call repeating an earlier
// call's shape reuses its graphs and closing volumes; its drains take
// the free decoders of their class, whatever weights they last decoded,
// with the layer planes they carry and the feed they last drained,
// which a chunk of an equal model resets onto its own sampler rather
// than building (so a warm call allocates no feed and no plane); and
// every call decodes on one process-wide pool of at least GOMAXPROCS
// workers.
func (w *Window) memory(rounds int, m spacetime.Model, kind toric.DecoderKind, opts spacetime.DecodeOptions, samples int, seed uint64) Result {
	code := w.Code()
	s := &Session{win: w, pool: monteCarloPool()}
	fx, fz, fa := frame.CountSectorFailures(samples, seed, func(lanes int, smp frame.Sampler) (bits.Vec, bits.Vec) {
		d := w.takeDecoder(s.pool, lanes, opts)
		defer putDecoder(d)
		return s.drain(d, d.source(code, m, smp), rounds, kind)
	})
	p, q, pe, qe := m.Rates()
	return Result{Code: code.CodeName(), L: code.Distance(), T: rounds, Window: w.W, Commit: w.Commit,
		P: p, Q: q, Pe: pe, Qe: qe, Samples: samples, FailX: fx, FailZ: fz, Failures: fa}
}

// CodeMemory is Memory under Phenomenological(p, q, 0, 0) with no
// decode options. The benchmark binds this name; ROADMAP item 1b
// retires it.
func CodeMemory(code surface.Code, rounds int, p, q float64, window, commit, samples int, seed uint64) (Result, error) {
	return Memory(code, rounds, spacetime.Phenomenological(p, q, 0, 0), window, commit, spacetime.DecodeOptions{}, samples, seed)
}

// CodeCircuitMemory is Memory under Circuit(P) with no decode options.
// The benchmark binds this name; ROADMAP item 1b retires it.
func CodeCircuitMemory(code surface.Code, rounds int, P noise.Params, window, commit, samples int, seed uint64) (Result, error) {
	return Memory(code, rounds, spacetime.Circuit(P), window, commit, spacetime.DecodeOptions{}, samples, seed)
}

// ThresholdPoint is one grid point of a sustained-threshold sweep.
type ThresholdPoint struct {
	P            float64
	Small, Large Result
}

// SustainedThreshold sweeps the grid for two code distances l1 < l2 —
// run(l, x, seed) measures distance l at grid point x, with seeds
// seed+2i (l1) and seed+2i+1 (l2) at point i — and estimates where the
// failure curves cross (spacetime.CrossingEstimate): the sustained
// threshold of the memory the runs measure, below which the larger
// distance is better. Returns NaN when the grid shows no crossing, plus
// the measured points; the first error a run returns ends the sweep.
func SustainedThreshold(l1, l2 int, grid []float64, run func(l int, x float64, seed uint64) (Result, error), seed uint64) (float64, []ThresholdPoint, error) {
	pts := make([]ThresholdPoint, len(grid))
	small := make([]float64, len(grid))
	large := make([]float64, len(grid))
	for i, x := range grid {
		rs, err := run(l1, x, seed+uint64(2*i))
		if err != nil {
			return 0, nil, err
		}
		rl, err := run(l2, x, seed+uint64(2*i+1))
		if err != nil {
			return 0, nil, err
		}
		pts[i] = ThresholdPoint{P: x, Small: rs, Large: rl}
		small[i] = rs.FailRate()
		large[i] = rl.FailRate()
	}
	return spacetime.CrossingEstimate(grid, small, large), pts, nil
}
