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
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/spacetime"
	"ftqc/internal/surface"
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
	if _, err := NewCodeWindow(nil, 4, 2, 1, 1); err == nil {
		t.Error("nil code accepted")
	}
	if _, err := NewCodeWindow(planar, 1, 1, 1, 1); err == nil {
		t.Error("one-layer window accepted")
	}
	if _, err := NewCodeWindow(planar, 4, 4, 1, 1); err == nil {
		t.Error("commit == window accepted")
	}
	if _, err := NewCodeWindow(planar, 4, 2, 0, 1); err == nil {
		t.Error("zero horizontal weight accepted")
	}
	if _, err := NewCodeCircuitWindow(planar, 4, 2, 1, 1, 0); err == nil {
		t.Error("circuit window without diagonal weight accepted")
	}
	w, err := NewCodeCircuitWindow(planar, 4, 2, 3, 2, 4)
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
		r, err := CodeMemory(code, 8, 0, 0, 0, 0, 512, 5)
		if err != nil {
			t.Fatal(err)
		}
		if r.Failures != 0 {
			t.Errorf("%s: %d failures at p=0", code.CodeName(), r.Failures)
		}
		if r.Code != code.CodeName() {
			t.Errorf("result code family %q, want %q", r.Code, code.CodeName())
		}
		rc, err := CodeCircuitMemory(code, 8, noise.Params{}, 0, 0, 512, 5)
		if err != nil {
			t.Fatal(err)
		}
		if rc.Failures != 0 || rc.Code != code.CodeName() {
			t.Errorf("%s circuit: %+v", code.CodeName(), rc)
		}
	}
	// Determinism, and the toric entry points still stamp their family.
	a, err := CodeCircuitMemory(surface.Planar(3), 10, noise.Uniform(0.004), 0, 0, 2048, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CodeCircuitMemory(surface.Planar(3), 10, noise.Uniform(0.004), 0, 0, 2048, 11)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
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

// TestNilCodeIsAnError pins the constructor-error gate of every entry
// point that takes a code: a nil code is the window's "needs a code"
// error, never a nil-pointer panic while defaults are derived from it.
func TestNilCodeIsAnError(t *testing.T) {
	P := noise.Uniform(0.004)
	for name, call := range map[string]func() error{
		"NewCodeWindow":         func() error { _, err := NewCodeWindow(nil, 4, 2, 1, 1); return err },
		"NewCodeCircuitWindow":  func() error { _, err := NewCodeCircuitWindow(nil, 4, 2, 1, 1, 1); return err },
		"NewCodeSession":        func() error { _, err := NewCodeSession(nil, 4, 2, 1, 1); return err },
		"NewCodeCircuitSession": func() error { _, err := NewCodeCircuitSession(nil, 4, 2, 1, 1, 1); return err },
		"CodeMemory":            func() error { _, err := CodeMemory(nil, 4, 0.01, 0.01, 0, 0, 64, 1); return err },
		"CodeCircuitMemory":     func() error { _, err := CodeCircuitMemory(nil, 4, P, 0, 0, 64, 1); return err },
		"CodeCircuitMemoryOpts": func() error {
			_, err := CodeCircuitMemoryOpts(nil, 4, P, 0, 0, 64, 1, spacetime.DecodeOptions{})
			return err
		},
	} {
		if err := call(); err == nil || !strings.Contains(err.Error(), "needs a code") {
			t.Errorf("%s(nil code): err = %v, want the window's \"needs a code\" error", name, err)
		}
	}
}

// TestEmptySampleIsAnError: a Monte Carlo entry point asked for fewer
// than one sample returns an error naming the count, never a NaN or a
// negative-zero rate.
func TestEmptySampleIsAnError(t *testing.T) {
	code, P := surface.Planar(3), noise.Uniform(0.004)
	for _, samples := range []int{0, -5} {
		for name, call := range map[string]func() error{
			"CodeMemory":        func() error { _, err := CodeMemory(code, 4, 0.01, 0.01, 0, 0, samples, 1); return err },
			"CodeCircuitMemory": func() error { _, err := CodeCircuitMemory(code, 4, P, 0, 0, samples, 1); return err },
			"CodeCircuitMemoryOpts": func() error {
				_, err := CodeCircuitMemoryOpts(code, 4, P, 0, 0, samples, 1, spacetime.DecodeOptions{})
				return err
			},
		} {
			if err := call(); err == nil || !strings.Contains(err.Error(), "sample") {
				t.Errorf("%s(samples=%d): err = %v, want an error naming the samples", name, samples, err)
			}
		}
	}
}
