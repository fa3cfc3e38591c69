package stream

import (
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/decoder"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/spacetime"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// mustSession / mustCircuitSession / mustMemory fail the test on a
// construction error — for the many tests whose parameters are valid by
// construction.
func mustSession(t *testing.T, l, window, commit, wh, wv int) *Session {
	t.Helper()
	s, err := toricSession(l, window, commit, wh, wv)
	if err != nil {
		t.Fatalf("toricSession(%d,%d,%d,%d,%d): %v", l, window, commit, wh, wv, err)
	}
	return s
}

func mustCircuitSession(t *testing.T, l, window, commit, wh, wv, wd int) *Session {
	t.Helper()
	s, err := toricCircuitSession(l, window, commit, wh, wv, wd)
	if err != nil {
		t.Fatalf("toricCircuitSession(%d,%d,%d,%d,%d,%d): %v", l, window, commit, wh, wv, wd, err)
	}
	return s
}

func mustMemory(t *testing.T, l, rounds int, p, q float64, window, commit, samples int, seed uint64) Result {
	t.Helper()
	r, err := toricMemory(l, rounds, p, q, window, commit, samples, seed)
	if err != nil {
		t.Fatalf("Memory: %v", err)
	}
	return r
}

func TestWindowShape(t *testing.T) {
	w, err := NewWindow(toric.Cached(4), 6, 3, 2, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	nc, nq := 16, 32
	nodes, horiz := 6*nc+1, 6*nq
	if w.Graph().Nodes() != nodes || w.DualGraph().Nodes() != nodes {
		t.Fatalf("node count %d/%d", w.Graph().Nodes(), w.DualGraph().Nodes())
	}
	if got, want := w.Graph().Edges(), 6*nq+6*nc; got != want {
		t.Fatalf("edge count %d, want %d", got, want)
	}
	if !w.Graph().IsBoundary(nodes - 1) {
		t.Fatal("last node must be the open boundary")
	}
	for e := 0; e < w.Graph().Edges(); e++ {
		a, b := w.Graph().Ends(e)
		if e < horiz {
			if w.Graph().Weight(e) != 2 || a/nc != b/nc || a/nc != e/nq {
				t.Fatalf("horizontal edge %d malformed: ends %d,%d weight %d", e, a, b, w.Graph().Weight(e))
			}
			continue
		}
		if w.Graph().Weight(e) != 5 {
			t.Fatalf("vertical edge %d weight %d", e, w.Graph().Weight(e))
		}
		tl := (e - horiz) / nc
		if tl == w.W-1 {
			if b != nodes-1 {
				t.Fatalf("virtual edge %d must reach the boundary, got ends %d,%d", e, a, b)
			}
		} else if a%nc != b%nc || b/nc-a/nc != 1 {
			t.Fatalf("vertical edge %d joins %d and %d", e, a, b)
		}
	}
}

// TestWindowGEVolumeBitIdentical is the satellite equivalence suite:
// when the window holds the whole stream (W ≥ T), the streaming decoder
// never slides and its failure masks must equal the from-scratch
// per-lane whole-volume decode (volumeReference) bit for bit — same
// sampler, same draw order, same union-find.
func TestWindowGEVolumeBitIdentical(t *testing.T) {
	const lanes = 192
	for _, cfg := range []struct {
		l, rounds, window, commit int
		p, q                      float64
	}{
		{3, 2, 2, 1, 0.05, 0.05},
		{4, 4, 4, 2, 0.03, 0.03},
		{4, 4, 7, 3, 0.03, 0.06}, // asymmetric weights, oversized window
		{5, 3, 5, 1, 0.08, 0.02},
		{4, 1, 2, 1, 0.06, 0.04},
	} {
		wh, wv := spacetime.Weights(cfg.p, cfg.q, cfg.l, cfg.rounds)
		v := spacetime.NewVolume(toric.Cached(cfg.l), cfg.rounds, wh, wv, 0)
		fx1, fz1 := volumeReference(v, toricLayers(cfg.l, cfg.p, cfg.q, lanes, frame.NewAggregateSampler(901, 7)), spacetime.DecodeOptions{})
		s := mustSession(t, cfg.l, cfg.window, cfg.commit, wh, wv)
		fx2, fz2 := batchMemory(s, cfg.rounds, cfg.p, cfg.q, lanes, frame.NewAggregateSampler(901, 7))
		s.Close()
		if !fx1.Equal(fx2) || !fz1.Equal(fz2) {
			t.Fatalf("L=%d T=%d W=%d: windowed decode differs from whole-volume (X %d vs %d fails, Z %d vs %d)",
				cfg.l, cfg.rounds, cfg.window, fx1.Weight(), fx2.Weight(), fz1.Weight(), fz2.Weight())
		}
	}
}

// TestWindowedMatchesVolumeRates is the acceptance physics: a sliding
// window of W = 2L rounds (commit L) over a longer stream reproduces
// the whole-volume logical failure rate within statistical error.
func TestWindowedMatchesVolumeRates(t *testing.T) {
	const samples = 6000
	for _, cfg := range []struct {
		l, rounds int
		p         float64
	}{
		{4, 16, 0.02},
		{4, 12, 0.03},
		{5, 15, 0.02},
	} {
		w, c := DefaultWindow(cfg.l)
		st := mustMemory(t, cfg.l, cfg.rounds, cfg.p, cfg.p, w, c, samples, 903)
		vol, _ := VolumeMemory(toric.Cached(cfg.l), cfg.rounds, spacetime.Phenomenological(cfg.p, cfg.p, 0, 0), toric.DecoderUnionFind, spacetime.DecodeOptions{}, samples, 904)
		fs, fv := st.FailRate(), vol.FailRate()
		sigma := math.Sqrt(fs*(1-fs)/samples + fv*(1-fv)/samples)
		if diff := math.Abs(fs - fv); diff > 4*sigma+0.015 {
			t.Fatalf("L=%d T=%d p=q=%v: windowed %.4f vs volume %.4f (diff %.4f > %.4f)",
				cfg.l, cfg.rounds, cfg.p, fs, fv, diff, 4*sigma+0.015)
		}
	}
}

// TestCommitBoundaryQuickcheck randomizes the commit boundary, window
// size, rates and seeds, checking on every draw that the committed
// correction cancels the accumulated error's syndrome exactly in both
// sectors — the streaming soundness property. (That a sliding stream
// commits the same frames on every run and worker count is
// internal/oracle's.)
func TestCommitBoundaryQuickcheck(t *testing.T) {
	rng := rand.New(rand.NewPCG(905, 906))
	for trial := 0; trial < 12; trial++ {
		l := 3 + rng.IntN(3)
		rounds := 1 + rng.IntN(14)
		window := 2 + rng.IntN(8)
		commit := 1 + rng.IntN(window-1)
		p := rng.Float64() * 0.06
		q := rng.Float64() * 0.06
		lanes := 64 + rng.IntN(130)
		seed := rng.Uint64()
		wh, wv := spacetime.Weights(p, q, l, rounds)

		// Soundness: drive a decoder by hand so the accumulated error is
		// inspectable, then check the residual is syndrome-free per lane.
		s := mustSession(t, l, window, commit, wh, wv)
		src := toricLayers(l, p, q, lanes, frame.NewAggregateSampler(seed, 4))
		d := s.NewDecoder(lanes)
		lat := toric.Cached(l)
		layerX := bits.NewVecs(lat.Checks(), lanes)
		layerZ := bits.NewVecs(lat.Checks(), lanes)
		for r := 0; r < rounds; r++ {
			src.NextLayers(layerX, layerZ)
			d.Push(layerX, layerZ)
		}
		src.CloseLayers(layerX, layerZ)
		d.Finish(layerX, layerZ)
		cumX, cumZ := src.ErrorPlanes()
		corrX, corrZ := d.Corrections()
		errv := bits.NewVec(lat.Qubits())
		for lane := 0; lane < lanes; lane += 1 + rng.IntN(7) {
			errv.Clear()
			for e := 0; e < lat.Qubits(); e++ {
				if cumX[e].Get(lane) {
					errv.Flip(e)
				}
			}
			errv.Xor(corrX[lane])
			if len(lat.Syndrome(errv)) != 0 {
				t.Fatalf("trial %d lane %d: X residual carries syndrome", trial, lane)
			}
			errv.Clear()
			for e := 0; e < lat.Qubits(); e++ {
				if cumZ[e].Get(lane) {
					errv.Flip(e)
				}
			}
			errv.Xor(corrZ[lane])
			if len(lat.StarSyndrome(errv)) != 0 {
				t.Fatalf("trial %d lane %d: Z residual carries syndrome", trial, lane)
			}
		}
		s.Close()
	}
}

// TestThousandRoundStreamSmoke is the CI long-run smoke (race-enabled):
// 1,000 rounds of sustained L=4 streaming must complete, slide
// regularly, and keep the footprint flat.
func TestThousandRoundStreamSmoke(t *testing.T) {
	const (
		l      = 4
		lanes  = 64
		rounds = 1000
		p      = 0.02
	)
	w, c := DefaultWindow(l)
	wh, wv := spacetime.Weights(p, p, l, w)
	s := mustSession(t, l, w, c, wh, wv)
	defer s.Close()
	src := toricLayers(l, p, p, lanes, frame.NewAggregateSampler(908, 1))
	d := s.NewDecoder(lanes)
	lat := toric.Cached(l)
	layerX := bits.NewVecs(lat.Checks(), lanes)
	layerZ := bits.NewVecs(lat.Checks(), lanes)
	warm := 0
	for r := 0; r < rounds; r++ {
		src.NextLayers(layerX, layerZ)
		d.Push(layerX, layerZ)
		if r == 99 {
			warm = d.FootprintBytes()
		}
	}
	src.CloseLayers(layerX, layerZ)
	d.Finish(layerX, layerZ)
	if d.Slides() < (rounds-w)/c {
		t.Fatalf("only %d slides over %d rounds", d.Slides(), rounds)
	}
	if final := d.FootprintBytes(); final > warm+warm/10 {
		t.Fatalf("footprint grew: %d bytes at 100 rounds, %d at 1000", warm, final)
	}
}

// TestFootprintCountsOneSetOfLists: the two sectors decode in turn on
// one set of per-lane lists, so a fresh decoder's footprint is its two
// sectors' streams (rings, carries, base pivots, frames), the
// erasure and repricing planes its options add, and the defect,
// erased-edge and correction lists once — lanes·(bufCap·(8+4) +
// eraCap·8) bytes, not twice that.
func TestFootprintCountsOneSetOfLists(t *testing.T) {
	const l, lanes = 4, 100
	words := func(n int) int { return (n + 63) / 64 * 8 }
	for _, opts := range []spacetime.DecodeOptions{{}, {ErasureAware: true}, {Correlated: true}, {ErasureAware: true, Correlated: true}} {
		s := mustCircuitSession(t, l, 6, 3, 2, 3, 2)
		d := s.NewDecoderOpts(lanes, opts)
		w, nq, nc := d.win.W, d.nq, d.nc
		stream := w*nc*words(lanes) + lanes*words(nc) + nc*words(lanes) + lanes*words(nq)
		if opts.ErasureAware {
			stream += w * nc * words(lanes)
		}
		want := 2 * stream
		if opts.ErasureAware {
			want += w * nq * words(lanes)
		}
		if opts.Correlated {
			want += words(d.win.Graph().Edges())
		}
		lists := lanes * (d.bufCap*(8+4) + d.eraCap*8)
		if got := d.FootprintBytes(); got != want+lists {
			t.Errorf("opts %+v: fresh footprint %d bytes, want %d of sector streams and options plus %d of one set of lists (%d more: %.1f sets)",
				opts, got, want, lists, got-want-lists, float64(got-want)/float64(lists))
		}
		s.Close()
	}
}

// TestFootprintCountsRegrownBuffers: the per-lane lists both sectors
// decode on are carved from one slab per kind, which stays resident
// when a lane outgrows its share, so a regrowth adds the new buffer to
// the footprint and takes nothing off it. A dense stream (p = q = 0.4
// on a small window) regrows some lanes' defect and correction lists.
func TestFootprintCountsRegrownBuffers(t *testing.T) {
	const l, w, lanes, rounds = 4, 4, 64, 12
	s := mustSession(t, l, w, 2, 1, 1)
	defer s.Close()
	d := s.NewDecoder(lanes)
	fresh := d.FootprintBytes()
	src := toricLayers(l, 0.4, 0.4, lanes, frame.NewAggregateSampler(911, 1))
	layerX, layerZ := bits.NewVecs(d.nc, lanes), bits.NewVecs(d.nc, lanes)
	for r := 0; r < rounds; r++ {
		src.NextLayers(layerX, layerZ)
		d.Push(layerX, layerZ)
	}
	src.CloseLayers(layerX, layerZ)
	d.Finish(layerX, layerZ)
	grown := 0
	for lane := range lanes {
		if c := cap(d.defbuf[lane]); c > d.bufCap {
			grown += c * 8
		}
		if c := cap(d.corrbuf[lane]); c > d.bufCap {
			grown += c * 4
		}
	}
	if grown == 0 {
		t.Fatal("degenerate: no lane outgrew its share")
	}
	if got := d.FootprintBytes(); got != fresh+grown {
		t.Fatalf("footprint %d after regrowth, want the fresh %d plus %d regrown bytes", got, fresh, grown)
	}
}

// TestConstantMemorySustained is the sustained-operation acceptance
// criterion: a 10,000-round L=8 streaming run completes with a resident
// decoder footprint that stays flat in the round count.
func TestConstantMemorySustained(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-round sustained run (the 1,000-round smoke covers short mode)")
	}
	const (
		l      = 8
		lanes  = 64
		rounds = 10000
		p      = 0.01
	)
	w, c := DefaultWindow(l)
	wh, wv := spacetime.Weights(p, p, l, w)
	s := mustSession(t, l, w, c, wh, wv)
	defer s.Close()
	src := toricLayers(l, p, p, lanes, frame.NewAggregateSampler(909, 1))
	d := s.NewDecoder(lanes)
	lat := toric.Cached(l)
	layerX := bits.NewVecs(lat.Checks(), lanes)
	layerZ := bits.NewVecs(lat.Checks(), lanes)
	warm := 0
	for r := 0; r < rounds; r++ {
		src.NextLayers(layerX, layerZ)
		d.Push(layerX, layerZ)
		if r == 999 {
			warm = d.FootprintBytes()
		}
	}
	src.CloseLayers(layerX, layerZ)
	d.Finish(layerX, layerZ)
	final := d.FootprintBytes()
	if d.Rounds() != rounds {
		t.Fatalf("ingested %d rounds", d.Rounds())
	}
	if minSlides := (rounds - w) / c; d.Slides() < minSlides {
		t.Fatalf("only %d slides over %d rounds", d.Slides(), rounds)
	}
	// The footprint after 10k rounds must match the 1k-round warm state
	// up to defect-buffer jitter (a record-defect lane can grow its
	// support slice by a few entries, never with the round count).
	if final > warm+warm/10 {
		t.Fatalf("footprint grew with rounds: %d bytes at 1k rounds, %d at 10k", warm, final)
	}
	t.Logf("L=%d sustained run: %d rounds, %d slides, %d resident bytes", l, rounds, d.Slides(), final)
}

// TestSustainedThresholdStreaming: the streaming sustained sweep shows
// the few-percent crossing like the whole-volume experiment.
func TestSustainedThresholdStreaming(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo sweep")
	}
	run := func(l int, p float64, seed uint64) (Result, error) {
		w, c := DefaultWindow(l)
		return toricMemory(l, 4*l, p, p, w, c, 3000, seed)
	}
	cross, pts, err := SustainedThreshold(3, 5, []float64{0.01, 0.02, 0.03, 0.04, 0.05}, run, 911)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(cross) {
		for _, pt := range pts {
			t.Logf("p=q=%.3f: L=3 %.4f  L=5 %.4f", pt.P, pt.Small.FailRate(), pt.Large.FailRate())
		}
		t.Fatal("no streaming sustained crossing on the grid")
	}
	if cross < 0.005 || cross > 0.06 {
		t.Fatalf("implausible streaming sustained threshold %.4f", cross)
	}
}

// TestWindowValidation: bad window parameters are descriptive
// construction errors (the satellite bugfix for mid-decode panics), and
// the errors name the offending values.
func TestWindowValidation(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		l, w, commit, wh, wv int
	}{
		{"no code", 0, 4, 2, 1, 1},
		{"one-layer window", 4, 1, 1, 1, 1},
		{"zero window", 4, 0, 0, 1, 1},
		{"zero commit", 4, 4, 0, 1, 1},
		{"commit == window", 4, 4, 4, 1, 1},
		{"commit > window", 4, 4, 9, 1, 1},
		{"negative commit", 4, 4, -2, 1, 1},
		{"zero horizontal weight", 4, 4, 2, 0, 1},
		{"negative vertical weight", 4, 4, 2, 1, -3},
	} {
		var code surface.Code
		if tc.l > 0 {
			code = toric.Cached(tc.l)
		}
		if _, err := NewWindow(code, tc.w, tc.commit, tc.wh, tc.wv, 0); err == nil {
			t.Errorf("%s: NewWindow(%d,%d,%d,%d,%d) accepted", tc.name, tc.l, tc.w, tc.commit, tc.wh, tc.wv)
		}
		if _, err := NewCodeSession(code, tc.w, tc.commit, tc.wh, tc.wv); err == nil {
			t.Errorf("%s: NewCodeSession accepted", tc.name)
		}
	}
	if _, err := NewWindow(toric.Cached(4), 4, 2, 1, 1, -1); err == nil {
		t.Error("window with wd=-1 accepted")
	}
	// A weight past the decoder's growth state is a construction error
	// naming it, never a panic from the first decode on a pool worker.
	for _, wt := range [][3]int{{40000, 1, 0}, {1, decoder.MaxWeight + 1, 0}, {3, 2, 1 << 20}} {
		_, err := NewWindow(toric.Cached(3), 6, 3, wt[0], wt[1], wt[2])
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(max(wt[0], wt[1], wt[2]))) {
			t.Errorf("window with weights %v: err %v, want one naming the weight", wt, err)
		}
	}
	if _, err := NewWindow(toric.Cached(3), 6, 3, decoder.MaxWeight, 1, 0); err != nil {
		t.Errorf("window at MaxWeight rejected: %v", err)
	}
	if _, err := toricMemory(4, 0, 0.01, 0.01, 4, 2, 100, 1); err == nil {
		t.Error("Memory with zero rounds accepted")
	}
	if _, err := toricCircuitMemory(4, 5, noise.Uniform(0.004), 4, 4, 100, 1); err == nil {
		t.Error("CircuitMemory with commit == window accepted")
	}
	// An oversized window over a short stream stays valid — it decodes
	// whole-volume at Finish.
	if _, err := toricMemory(3, 2, 0.02, 0.02, 9, 3, 100, 2); err != nil {
		t.Errorf("oversized window rejected: %v", err)
	}
}

// TestSharedPoolSessions: closing a session grafted onto an external
// decoder.NewPool fleet leaves the pool alive. (That shared-pool
// sessions commit the private-pool frames is internal/oracle's.)
func TestSharedPoolSessions(t *testing.T) {
	pool := decoder.NewPool(2)
	defer pool.Close()
	s, err := toricSessionOn(pool, 3, 4, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	batchMemory(s, 9, 0.03, 0.03, 96, frame.NewAggregateSampler(913, 0))
	s.Close() // must not close the shared pool
	if err := pool.ResubmitOn(toric.Cached(3).SectorGraph(false), decoder.NewBatch(1), []decoder.Shot{{}}); err != nil {
		t.Fatalf("shared pool died with its session: %v", err)
	}
}

// TestOddClosingLeavesFramesAtCommitted: a closing round whose dual
// planes hold an odd number of defects in one lane fails the Finish of
// a closed code after the primal sector has decoded and committed; the
// decoder takes that commit back out, so both frames stay what they
// were at Committed() rounds, for plain and correlated decoders.
func TestOddClosingLeavesFramesAtCommitted(t *testing.T) {
	const l, window, commit, lanes = 3, 3, 1, 64
	for _, opts := range []spacetime.DecodeOptions{{}, {Correlated: true}} {
		s := mustSession(t, l, window, commit, 1, 1)
		d := s.NewDecoderOpts(lanes, opts)
		src := toricLayers(l, 0.05, 0.05, lanes, frame.NewAggregateSampler(919, 1))
		layerX, layerZ := bits.NewVecs(d.nc, lanes), bits.NewVecs(d.nc, lanes)
		for r := 0; r < 2*window; r++ {
			src.NextLayers(layerX, layerZ)
			d.Push(layerX, layerZ)
		}
		committed := d.Committed()
		x, z := d.Corrections()
		x, z = cloneVecs(x), cloneVecs(z)
		src.CloseLayers(layerX, layerZ)
		layerZ[0].Flip(lanes / 2)
		d.Finish(layerX, layerZ)
		if d.Err() == nil {
			t.Fatalf("opts %+v: an odd dual closing round was accepted", opts)
		}
		gx, gz := d.Corrections()
		if d.Committed() != committed || !slices.EqualFunc(gx, x, bits.Vec.Equal) || !slices.EqualFunc(gz, z, bits.Vec.Equal) {
			t.Fatalf("opts %+v: a failed Finish moved the frames committed through round %d", opts, committed)
		}
		if d.DefectsObserved() == 0 || slices.IndexFunc(x, bits.Vec.Any) < 0 {
			t.Fatalf("opts %+v: degenerate, no defects or no committed primal frame", opts)
		}
		s.Close()
	}
}

// TestDecoderErrAfterPoolClose: a decoder whose shared pool is closed
// underneath it reports Err instead of panicking, and keeps the frames
// committed so far.
func TestDecoderErrAfterPoolClose(t *testing.T) {
	pool := decoder.NewPool(2)
	const l, window, commit, lanes = 3, 3, 1, 32
	s, err := toricSessionOn(pool, l, window, commit, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := toricLayers(l, 0.05, 0.05, lanes, frame.NewAggregateSampler(915, 1))
	d := s.NewDecoder(lanes)
	lat := toric.Cached(l)
	layerX := bits.NewVecs(lat.Checks(), lanes)
	layerZ := bits.NewVecs(lat.Checks(), lanes)
	for r := 0; r < 2*window; r++ {
		src.NextLayers(layerX, layerZ)
		d.Push(layerX, layerZ)
	}
	committed := d.Committed()
	if committed == 0 {
		t.Fatal("no slides before the pool closed — test misconfigured")
	}
	pool.Close()
	for r := 0; r < 2*window; r++ {
		src.NextLayers(layerX, layerZ)
		d.Push(layerX, layerZ) // must not panic
	}
	if d.Err() == nil {
		t.Fatal("decoder did not surface the closed pool")
	}
	if d.Committed() != committed {
		t.Fatalf("committed count moved after the pool closed: %d -> %d", committed, d.Committed())
	}
	src.CloseLayers(layerX, layerZ)
	d.Finish(layerX, layerZ) // no-op under Err, must not panic
}
