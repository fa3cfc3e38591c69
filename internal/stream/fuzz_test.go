package stream

import (
	"math"
	"testing"
	"time"

	"ftqc/internal/noise"
	"ftqc/internal/spacetime"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// FuzzMemoryOptions drives both memory drivers, spacetime.Memory and
// stream.Memory, with arbitrary option combinations: code family,
// distance 3–4 (rotated codes are odd, so 3), 1–4 rounds, any window
// and commit (0 and negative included), a phenomenological model with
// four rates or a circuit model with a rate and a leak rate (NaN, ±Inf
// and out-of-range values included), both option bits, the decoder kind
// and 1–64 samples. Every call must return an error or finish — a
// bounded wait turns a hang into a failure — and when both accept a
// union-find run over one decode horizon (W = rounds for a circuit
// model, W ≥ rounds for a phenomenological one) their failure counts
// must agree.
//
//	go test -run '^$' -fuzz=FuzzMemoryOptions -fuzztime=10s ./internal/stream/
func FuzzMemoryOptions(f *testing.F) {
	nan := math.NaN()
	// family, dist, rounds, window, commit, circuit, p, q, pe, qe, aware, correlated, exact, samples
	f.Add(uint8(0), uint8(0), uint8(3), int8(0), int8(0), false, nan, 0.01, 0.0, 0.0, false, false, false, uint8(63))
	f.Add(uint8(0), uint8(1), uint8(3), int8(4), int8(1), true, 0.006, 0.0, 0.01, 0.0, true, true, false, uint8(40))
	f.Add(uint8(1), uint8(0), uint8(2), int8(3), int8(0), false, 0.03, 0.02, 0.05, 0.02, true, false, false, uint8(20))
	f.Add(uint8(2), uint8(0), uint8(1), int8(-1), int8(0), true, 1.5, 0.0, 0.0, 0.0, false, false, true, uint8(8))
	f.Fuzz(func(t *testing.T, family, dist, rounds uint8, window, commit int8, circuit bool,
		p, q, pe, qe float64, aware, correlated, exact bool, samples uint8) {
		d := 3 + int(dist%2)
		var code surface.Code
		switch family % 3 {
		case 0:
			code = toric.Cached(d)
		case 1:
			code = surface.Planar(d)
		default:
			code = surface.Rotated(3)
		}
		T, n := 1+int(rounds%4), 1+int(samples%64)
		m := spacetime.Phenomenological(p, q, pe, qe)
		if circuit {
			P := noise.Uniform(p)
			P.Leak = pe
			m = spacetime.Circuit(P)
		}
		kind := toric.DecoderUnionFind
		if exact {
			kind = toric.DecoderExact
		}
		opts := spacetime.DecodeOptions{ErasureAware: aware, Correlated: correlated}
		type outcome struct {
			vol            spacetime.Result
			str            Result
			volErr, strErr error
		}
		done := make(chan outcome, 1)
		go func() {
			var o outcome
			o.vol, o.volErr = spacetime.Memory(code, T, m, kind, opts, n, 7)
			o.str, o.strErr = Memory(code, T, m, int(window), int(commit), opts, n, 7)
			done <- o
		}()
		var o outcome
		select {
		case o = <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s d=%d T=%d W=%d/%d model %+v opts %+v: a Memory call neither returned nor failed", code.CodeName(), d, T, window, commit, m, opts)
		}
		if o.volErr != nil || o.strErr != nil || kind != toric.DecoderUnionFind {
			return
		}
		if o.str.Window == T || !circuit && o.str.Window >= T {
			if o.vol.FailX != o.str.FailX || o.vol.FailZ != o.str.FailZ {
				t.Fatalf("%s d=%d T=%d W=%d model %+v opts %+v: whole volume fails %d/%d, stream %d/%d",
					code.CodeName(), d, T, o.str.Window, m, opts, o.vol.FailX, o.vol.FailZ, o.str.FailX, o.str.FailZ)
			}
		}
	})
}
