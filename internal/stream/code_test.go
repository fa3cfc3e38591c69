package stream

// Streaming decode for the open-boundary families: the planar and
// rotated codes flow through the same sliding-window machinery as the
// torus, with their spatial boundaries grounded on the window's
// virtual node and boundary-truncated diagonals carrying their lone
// defect into the commit layer.

import (
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

func mustCodeSession(t *testing.T, code surface.Code, window, commit, wh, wv int) *Session {
	t.Helper()
	s, err := NewCodeSession(code, window, commit, wh, wv)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustCodeCircuitSession(t *testing.T, code surface.Code, window, commit, wh, wv, wd int) *Session {
	t.Helper()
	s, err := NewCodeCircuitSession(code, window, commit, wh, wv, wd)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// codeSyndrome computes the defect set of an error chain over the 2D
// sector graph, boundary node excluded.
func codeSyndrome(code surface.Code, dual bool, errv bits.Vec) []int {
	g := code.SectorGraph(dual)
	syn := make([]bool, code.Checks())
	for q := 0; q < code.Qubits(); q++ {
		if !errv.Get(q) {
			continue
		}
		a, b := g.Ends(q)
		if a < code.Checks() {
			syn[a] = !syn[a]
		}
		if b < code.Checks() {
			syn[b] = !syn[b]
		}
	}
	var defects []int
	for c, on := range syn {
		if on {
			defects = append(defects, c)
		}
	}
	return defects
}

func TestCodeWindowValidation(t *testing.T) {
	planar := surface.Planar(3)
	if _, err := NewWindow(nil, 4, 2, 1, 1, 0); err == nil {
		t.Error("nil code accepted")
	}
	if _, err := NewWindow(planar, 1, 1, 1, 1, 0); err == nil {
		t.Error("one-layer window accepted")
	}
	if _, err := NewWindow(planar, 4, 4, 1, 1, 0); err == nil {
		t.Error("commit == window accepted")
	}
	if _, err := NewWindow(planar, 4, 2, 0, 1, 0); err == nil {
		t.Error("zero horizontal weight accepted")
	}
	if _, err := NewWindow(planar, 4, 2, 1, 1, -1); err == nil {
		t.Error("negative diagonal weight accepted")
	}
	w, err := NewWindow(planar, 4, 2, 3, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if w.Code() != planar {
		t.Error("window should expose its code")
	}
}

// TestCodeStreamingSoundness pushes noisy rounds of both open families
// through sliding windows (both models, slides forced) and asserts the
// committed corrections cancel the accumulated error's syndrome lane
// by lane — the streaming residual invariant, now with grounded
// boundary chains and truncated-diagonal commits in play.
func TestCodeStreamingSoundness(t *testing.T) {
	const lanes, rounds = 96, 17
	for _, code := range []surface.Code{surface.Planar(3), surface.Rotated(5)} {
		for _, circuit := range []bool{false, true} {
			var s *Session
			var src spacetime.LayerFeed
			smp := frame.NewAggregateSampler(97, uint64(code.Qubits()))
			if circuit {
				wh, wv, wd := spacetime.WeightsCircuit(noise.Uniform(0.004), code.Distance(), 6)
				s = mustCodeCircuitSession(t, code, 6, 2, wh, wv, wd)
				src = surface.NewCircuitSource(code, noise.Uniform(0.004), lanes, smp)
			} else {
				wh, wv := spacetime.Weights(0.02, 0.02, code.Distance(), 6)
				s = mustCodeSession(t, code, 6, 2, wh, wv)
				src = surface.NewLayerSource(code, 0.02, 0.02, lanes, smp)
			}
			nc := code.Checks()
			layerX := bits.NewVecs(nc, lanes)
			layerZ := bits.NewVecs(nc, lanes)
			d := s.NewDecoder(lanes)
			for r := 0; r < rounds; r++ {
				src.NextLayers(layerX, layerZ)
				d.Push(layerX, layerZ)
			}
			src.CloseLayers(layerX, layerZ)
			d.Finish(layerX, layerZ)
			if err := d.Err(); err != nil {
				t.Fatal(err)
			}
			if d.Committed() != rounds {
				t.Fatalf("%s circuit=%v: committed %d of %d rounds", code.CodeName(), circuit, d.Committed(), rounds)
			}
			wf, ok := src.(interface{ ErrorPlanes() (x, z []bits.Vec) })
			if !ok {
				t.Fatal("source does not expose error planes")
			}
			cumX, cumZ := wf.ErrorPlanes()
			corrX, corrZ := d.Corrections()
			errv := bits.NewVec(code.Qubits())
			for lane := 0; lane < lanes; lane++ {
				laneError(cumX, lane, errv)
				errv.Xor(corrX[lane])
				if res := codeSyndrome(code, false, errv); len(res) != 0 {
					t.Fatalf("%s circuit=%v lane %d: X residual carries syndrome %v", code.CodeName(), circuit, lane, res)
				}
				laneError(cumZ, lane, errv)
				errv.Xor(corrZ[lane])
				if res := codeSyndrome(code, true, errv); len(res) != 0 {
					t.Fatalf("%s circuit=%v lane %d: Z residual carries syndrome %v", code.CodeName(), circuit, lane, res)
				}
			}
			s.Close()
		}
	}
}

func TestCodeMemoryEntryPoints(t *testing.T) {
	// Zero noise: every family streams to zero failures.
	for _, code := range []surface.Code{surface.Planar(3), surface.Rotated(3)} {
		for _, m := range []spacetime.Model{spacetime.Phenomenological(0, 0, 0, 0), spacetime.Circuit(noise.Params{})} {
			r, err := Memory(code, 8, m, 0, 0, spacetime.DecodeOptions{}, 512, 5)
			if err != nil {
				t.Fatal(err)
			}
			if r.Failures != 0 || r.Code != code.CodeName() {
				t.Errorf("%s circuit=%v: %+v", code.CodeName(), m.CircuitLevel(), r)
			}
		}
	}
	// Determinism, and the toric entry points still stamp their family.
	planar := func() Result {
		r, err := Memory(surface.Planar(3), 10, spacetime.Circuit(noise.Uniform(0.004)), 0, 0, spacetime.DecodeOptions{}, 2048, 11)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if a, b := planar(), planar(); a != b {
		t.Errorf("planar streaming memory not deterministic: %+v vs %+v", a, b)
	}
	tr, err := toricCircuitMemory(3, 10, noise.Uniform(0.004), 0, 0, 256, 11)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Code != "toric" {
		t.Errorf("toric entry point stamps family %q", tr.Code)
	}
}

// TestLeakyCircuitModelReturnsCounts: a circuit model with a Leak
// channel and no decode options is an erasure model, so Memory — and
// the CodeCircuitMemory shim — stream it through PushErased (blind) and
// return counts, never the plain source's leak panic inside a chunk
// worker, where no caller can recover it.
func TestLeakyCircuitModelReturnsCounts(t *testing.T) {
	P := noise.Uniform(0.004)
	P.Leak = 0.01
	for name, run := range map[string]func() (Result, error){
		"Memory": func() (Result, error) {
			return Memory(toric.Cached(4), 12, spacetime.Circuit(P), 0, 0, spacetime.DecodeOptions{}, 256, 11)
		},
		"CodeCircuitMemory": func() (Result, error) { return CodeCircuitMemory(toric.Cached(4), 12, P, 0, 0, 256, 11) },
	} {
		r, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Samples != 256 || r.Pe != P.Leak || r.Failures == 0 {
			t.Fatalf("%s: leaky circuit memory %+v", name, r)
		}
	}
}

// memoryRow is one model and option set of the constructor-error tables.
type memoryRow struct {
	m    spacetime.Model
	opts spacetime.DecodeOptions
}

// memoryRows are the Memory rows of the constructor-error tables: every
// model and drain, the phenomenological erasure channels included.
var memoryRows = map[string]memoryRow{
	"Memory/phenomenological":         {spacetime.Phenomenological(0.01, 0.01, 0, 0), spacetime.DecodeOptions{}},
	"Memory/circuit":                  {spacetime.Circuit(noise.Uniform(0.004)), spacetime.DecodeOptions{}},
	"Memory/circuit with options":     {spacetime.Circuit(noise.Uniform(0.004)), spacetime.DecodeOptions{ErasureAware: true, Correlated: true}},
	"Memory/phenomenological erasure": {spacetime.Phenomenological(0.01, 0.01, 0.05, 0.05), spacetime.DecodeOptions{ErasureAware: true}},
}

// TestNilCodeIsAnError pins the constructor-error gate of every entry
// point that takes a code: a nil code is the window's "needs a code"
// error, never a nil-pointer panic while defaults are derived from it.
func TestNilCodeIsAnError(t *testing.T) {
	calls := map[string]func() error{
		"NewWindow":             func() error { _, err := NewWindow(nil, 4, 2, 1, 1, 0); return err },
		"NewCodeSession":        func() error { _, err := NewCodeSession(nil, 4, 2, 1, 1); return err },
		"NewCodeCircuitSession": func() error { _, err := NewCodeCircuitSession(nil, 4, 2, 1, 1, 1); return err },
	}
	for name, md := range memoryRows {
		calls[name] = func() error { _, err := Memory(nil, 4, md.m, 0, 0, md.opts, 64, 1); return err }
	}
	for name, call := range calls {
		if err := call(); err == nil || !strings.Contains(err.Error(), "needs a code") {
			t.Errorf("%s(nil code): err = %v, want the window's \"needs a code\" error", name, err)
		}
	}
}

// TestEmptySampleIsAnError: a Monte Carlo entry point asked for fewer
// than one sample returns an error naming the count, never a NaN or a
// negative-zero rate.
func TestEmptySampleIsAnError(t *testing.T) {
	code := surface.Planar(3)
	for _, samples := range []int{0, -5} {
		for name, md := range memoryRows {
			if _, err := Memory(code, 4, md.m, 0, 0, md.opts, samples, 1); err == nil || !strings.Contains(err.Error(), "sample") {
				t.Errorf("%s(samples=%d): err = %v, want an error naming the samples", name, samples, err)
			}
		}
	}
}

// TestPhenomenologicalErasureStreams: leaked data qubits and lost
// measurements stream through the phenomenological window like leakage
// through a circuit-level one. On a sliding stream the erasure-aware
// decoder commits the same frames at one and at four pool workers, and
// at a fixed seed it fails fewer shots than the blind arm decoding the
// same histories. A decode option with no erasure channel to act on is
// still a constructor error.
func TestPhenomenologicalErasureStreams(t *testing.T) {
	const l, rounds, window, commit, lanes = 4, 12, 5, 2, 192
	m := spacetime.Phenomenological(0.01, 0.01, 0.02, 0.02)
	aware := spacetime.DecodeOptions{ErasureAware: true}
	wh, wv, wd := m.Weights(l, rounds)
	never := func(int) bool { return false }
	frames := func(workers int) (x, z []bits.Vec) {
		pool := decoder.NewPool(workers)
		defer pool.Close()
		win, err := NewWindow(toric.Cached(l), window, commit, wh, wv, wd)
		if err != nil {
			t.Fatal(err)
		}
		src := m.Source(toric.Cached(l), lanes, frame.NewAggregateSampler(985, 3))
		return streamFrames(t, NewSessionOn(pool, win).NewDecoderOpts(lanes, aware), src, rounds, never, never)
	}
	x1, z1 := frames(1)
	x4, z4 := frames(4)
	if !equalVecs(x1, x4) || !equalVecs(z1, z4) {
		t.Fatal("phenomenological erasure stream commits other frames at 4 workers than at 1")
	}
	run := func(opts spacetime.DecodeOptions) Result {
		r, err := Memory(toric.Cached(l), rounds, m, window, commit, opts, 2000, 987)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(aware), run(spacetime.DecodeOptions{})
	t.Logf("aware %d/%d blind %d/%d", a.Failures, a.Samples, b.Failures, b.Samples)
	if a.Failures >= b.Failures {
		t.Fatalf("erasure-aware stream (%d failures) not better than blind (%d)", a.Failures, b.Failures)
	}
	plain := spacetime.Phenomenological(0.01, 0.01, 0, 0)
	if _, err := Memory(toric.Cached(l), rounds, plain, window, commit, spacetime.DecodeOptions{Correlated: true}, 64, 1); err == nil || !strings.Contains(err.Error(), "erasure channel") {
		t.Fatalf("correlated decoding without an erasure channel: err = %v, want the erasure-channel error", err)
	}
}

// TestResultReportsErasureRates: both drivers report the rates of the
// model they ran — a phenomenological model's lost-measurement rate as
// Qe beside its leakage rate Pe, a circuit model's Leak as Pe.
func TestResultReportsErasureRates(t *testing.T) {
	code := toric.Cached(3)
	phenom := spacetime.Phenomenological(0.02, 0.02, 0.01, 0.03)
	leaky := noise.Uniform(0.004)
	leaky.Leak = 0.002
	for name, run := range map[string]func(m spacetime.Model) (Result, error){
		"VolumeMemory": func(m spacetime.Model) (Result, error) {
			return VolumeMemory(code, 3, m, toric.DecoderUnionFind, spacetime.DecodeOptions{}, 64, 1)
		},
		"Memory": func(m spacetime.Model) (Result, error) {
			return Memory(code, 6, m, 4, 2, spacetime.DecodeOptions{}, 64, 1)
		},
	} {
		r, err := run(phenom)
		if err != nil || r.P != 0.02 || r.Q != 0.02 || r.Pe != 0.01 || r.Qe != 0.03 {
			t.Errorf("%s phenomenological: %+v (err %v), want p = q = 0.02, pe = 0.01, qe = 0.03", name, r, err)
		}
		r, err = run(spacetime.Circuit(leaky))
		if err != nil || r.Pe != leaky.Leak || r.Qe != 0 {
			t.Errorf("%s circuit: %+v (err %v), want pe = %v, qe = 0", name, r, err, leaky.Leak)
		}
	}
}

// TestVolumeMemoryReportsNoWindow: a whole-volume run reports the same
// shape whichever decoder ran it — its horizon, and no window or commit.
func TestVolumeMemoryReportsNoWindow(t *testing.T) {
	m := spacetime.Phenomenological(0.02, 0.02, 0, 0)
	for _, kind := range []toric.DecoderKind{toric.DecoderUnionFind, toric.DecoderExact} {
		r, err := VolumeMemory(toric.Cached(3), 5, m, kind, spacetime.DecodeOptions{}, 64, 1)
		if err != nil || r.T != 5 || r.Window != 0 || r.Commit != 0 {
			t.Errorf("kind %d: %+v (err %v), want T = 5, window = commit = 0", kind, r, err)
		}
	}
}
