package stream

import (
	"math"
	"math/rand/v2"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/spacetime"
	"ftqc/internal/toric"
)

// TestCircuitWindowShape: the circuit window carries the diagonal class
// with the documented id layout, grounding the newest layer's diagonals
// on the boundary node like the virtual verticals.
func TestCircuitWindowShape(t *testing.T) {
	const l, wdw, commit = 4, 5, 2
	const wh, wv, wd = 2, 1, 3
	w, err := NewWindow(toric.Cached(l), wdw, commit, wh, wv, wd)
	if err != nil {
		t.Fatal(err)
	}
	nc, nq := l*l, 2*l*l
	if got, want := w.Graph().Edges(), wdw*(2*nq+nc); got != want {
		t.Fatalf("edge count %d, want %d", got, want)
	}
	diagX, boundary := toric.Cached(l).ExtractionSchedule().DiagX, wdw*nc
	for tl := 0; tl < wdw; tl++ {
		for e := 0; e < nq; e++ {
			id := wdw*(nq+nc) + tl*nq + e
			a, b := w.Graph().Ends(id)
			if w.Graph().Weight(id) != wd {
				t.Fatalf("diagonal %d weight %d", id, w.Graph().Weight(id))
			}
			if a != tl*nc+int(diagX[e][0]) {
				t.Fatalf("diagonal %d lower end %d, want late reader %d@%d", id, a, diagX[e][0], tl)
			}
			if tl == wdw-1 {
				if b != boundary {
					t.Fatalf("newest-layer diagonal %d must ground on the boundary, got %d", id, b)
				}
			} else if b != (tl+1)*nc+int(diagX[e][1]) {
				t.Fatalf("diagonal %d upper end %d, want early reader %d@%d", id, b, diagX[e][1], tl+1)
			}
		}
	}
}

// TestCircuitMemoryPricesOverTheWindow: a circuit-level Memory run
// prices its window's weights over the window, not over the rounds.
// Under measurement-dominated noise the two horizons price different
// weights (spacetime's TestWeightsCircuitHorizon), so a 2-round run on
// the default window of 6 at d = 3 must decode on the window priced
// over 6 layers: that window's closing volume of height 2, not the
// other's, is the one the run's Finish builds. A one-round
// VolumeMemory run decodes on a window of two layers, which union-find
// prices as Memory does, over the window, and the exact matcher over
// the one round.
func TestCircuitMemoryPricesOverTheWindow(t *testing.T) {
	const d = 3
	m := spacetime.Circuit(noise.Params{Storage: 1e-4, Meas: 0.05})
	code := toric.Cached(d)
	window, commit, err := WindowShape(d, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	volume := func(kind toric.DecoderKind) func() error {
		return func() error {
			_, err := VolumeMemory(code, 1, m, kind, spacetime.DecodeOptions{}, 64, 5)
			return err
		}
	}
	for _, tc := range []struct {
		name                   string
		rounds, window, commit int
		horizon, other         int // the horizon the run must price over, and the other one
		run                    func() error
	}{
		{"Memory", 2, window, commit, window, 2, func() error {
			_, err := Memory(code, 2, m, 0, 0, spacetime.DecodeOptions{}, 64, 5)
			return err
		}},
		{"VolumeMemory union-find", 1, 2, 1, 2, 1, volume(toric.DecoderUnionFind)},
		{"VolumeMemory exact", 1, 2, 1, 1, 2, volume(toric.DecoderExact)},
	} {
		forgetShapes()
		intern := func(horizon int) *Window {
			wh, wv, wd := m.Weights(d, horizon)
			win, err := InternWindow(code, tc.window, tc.commit, wh, wv, wd)
			if err != nil {
				t.Fatal(err)
			}
			return win
		}
		want, other := intern(tc.horizon), intern(tc.other)
		if want == other {
			t.Fatalf("%s: degenerate: both horizons price the same weights", tc.name)
		}
		if err := tc.run(); err != nil {
			t.Fatal(err)
		}
		closed := func(w *Window) bool {
			w.mu.Lock()
			defer w.mu.Unlock()
			return w.closing[tc.rounds-1] != nil
		}
		if !closed(want) || closed(other) {
			t.Fatalf("%s decoded on the window priced over %d layers (%d,%d,%d), not over %d (%d,%d,%d)",
				tc.name, tc.other, other.WH, other.WV, other.WD, tc.horizon, want.WH, want.WV, want.WD)
		}
	}
}

// TestCircuitWindowGEVolumeBitIdentical is the satellite equivalence
// suite for the circuit model: when the window holds the whole stream
// (W ≥ T) the streaming decoder never slides, and draining the same
// circuit-level source must reproduce the from-scratch per-lane
// whole-volume diagonal-edge decode (volumeReference) bit for bit — same
// extraction circuit, same draw order, same union-find over the same
// graph.
func TestCircuitWindowGEVolumeBitIdentical(t *testing.T) {
	const lanes = 192
	for _, cfg := range []struct {
		l, rounds, window, commit int
		eps                       float64
	}{
		{3, 2, 2, 1, 0.01},
		{4, 4, 4, 2, 0.006},
		{4, 4, 7, 3, 0.01}, // oversized window
		{5, 3, 5, 1, 0.004},
	} {
		P := noise.Uniform(cfg.eps)
		wh, wv, wd := spacetime.WeightsCircuit(P, cfg.l, cfg.rounds)
		v := spacetime.NewVolume(toric.Cached(cfg.l), cfg.rounds, wh, wv, wd)
		fx1, fz1 := volumeReference(v,
			toricCircuit(cfg.l, P, lanes, frame.NewAggregateSampler(951, 7)), spacetime.DecodeOptions{})
		s := mustCircuitSession(t, cfg.l, cfg.window, cfg.commit, wh, wv, wd)
		fx2, fz2 := s.BatchMemoryFrom(
			toricCircuit(cfg.l, P, lanes, frame.NewAggregateSampler(951, 7)),
			cfg.rounds, spacetime.DecodeOptions{})
		s.Close()
		if !fx1.Equal(fx2) || !fz1.Equal(fz2) {
			t.Fatalf("L=%d T=%d W=%d: circuit windowed decode differs from whole-volume (X %d vs %d fails, Z %d vs %d)",
				cfg.l, cfg.rounds, cfg.window, fx1.Weight(), fx2.Weight(), fz1.Weight(), fz2.Weight())
		}
	}
}

// TestCircuitCommitQuickcheck randomizes window and commit sizes over
// genuinely sliding circuit-level streams, checking that the committed
// correction cancels the accumulated error's syndrome exactly in both
// sectors — the streaming soundness property, now including cut
// diagonal chains.
func TestCircuitCommitQuickcheck(t *testing.T) {
	rng := rand.New(rand.NewPCG(953, 954))
	for trial := 0; trial < 8; trial++ {
		l := 3 + rng.IntN(3)
		rounds := 2 + rng.IntN(12)
		window := 2 + rng.IntN(6)
		commit := 1 + rng.IntN(window-1)
		eps := 0.002 + rng.Float64()*0.01
		lanes := 64 + rng.IntN(130)
		seed := rng.Uint64()
		P := noise.Uniform(eps)
		wh, wv, wd := spacetime.WeightsCircuit(P, l, window)

		s := mustCircuitSession(t, l, window, commit, wh, wv, wd)
		src := toricCircuit(l, P, lanes, frame.NewAggregateSampler(seed, 4))
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
			laneError(cumX, lane, errv)
			errv.Xor(corrX[lane])
			if len(lat.Syndrome(errv)) != 0 {
				t.Fatalf("trial %d lane %d: X residual carries syndrome", trial, lane)
			}
			laneError(cumZ, lane, errv)
			errv.Xor(corrZ[lane])
			if len(lat.StarSyndrome(errv)) != 0 {
				t.Fatalf("trial %d lane %d: Z residual carries syndrome", trial, lane)
			}
		}
		s.Close()
	}
}

// laneError gathers one lane's accumulated error chain from edge-major
// planes.
func laneError(planes []bits.Vec, lane int, errv bits.Vec) {
	errv.Clear()
	for e := range planes {
		if planes[e].Get(lane) {
			errv.Flip(e)
		}
	}
}

// TestCircuitWindowedMatchesVolumeRates: a W = 2L sliding window over a
// longer circuit-level stream reproduces the whole-volume circuit
// failure rate within statistical error.
func TestCircuitWindowedMatchesVolumeRates(t *testing.T) {
	const samples = 4000
	for _, cfg := range []struct {
		l, rounds int
		eps       float64
	}{
		{4, 16, 0.005},
		{4, 12, 0.007},
	} {
		P := noise.Uniform(cfg.eps)
		w, c := DefaultWindow(cfg.l)
		st, err := toricCircuitMemory(cfg.l, cfg.rounds, P, w, c, samples, 959)
		if err != nil {
			t.Fatal(err)
		}
		vol, _ := VolumeMemory(toric.Cached(cfg.l), cfg.rounds, spacetime.Circuit(P), toric.DecoderUnionFind, spacetime.DecodeOptions{}, samples, 960)
		fs, fv := st.FailRate(), vol.FailRate()
		sigma := math.Sqrt(fs*(1-fs)/samples + fv*(1-fv)/samples)
		if diff := math.Abs(fs - fv); diff > 4*sigma+0.015 {
			t.Fatalf("L=%d T=%d eps=%v: windowed %.4f vs volume %.4f (diff %.4f > %.4f)",
				cfg.l, cfg.rounds, cfg.eps, fs, fv, diff, 4*sigma+0.015)
		}
	}
}
