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

// FuzzMemoryOptions drives the memory drivers with arbitrary option
// combinations. The volume and streaming drivers, VolumeMemory and
// Memory, get a code family, distance 3–4 (rotated codes are
// odd, so 3), 1–4 rounds, any window and commit (0 and negative
// included), a phenomenological model with four rates or a circuit
// model with a rate and a leak rate (NaN, ±Inf and out-of-range values
// included), both option bits, a decoder kind byte (kinds that name no
// decoder included) and 1–64 samples. The 2D drivers,
// toric.MemoryExperiment and surface.MemoryExperimentXZ on the torus,
// get L = 0–6 (no code below 2), a rate byte (NaN, ±Inf and
// out-of-range rates included), the same kind and 0–64 samples. Every
// call must return an error or finish — a bounded wait turns a hang
// into a failure — and a kind that names no decoder must be an error.
// When both volume and stream accept a union-find run over one decode
// horizon (W = rounds for a circuit model, W ≥ rounds for a
// phenomenological one) their failure counts must agree — erasure
// channels and decode options included; when both 2D
// drivers accept a union-find run, the X-sector failures must agree
// (both draw the X planes first).
//
//	go test -run '^$' -fuzz=FuzzMemoryOptions -fuzztime=10s ./internal/stream/
func FuzzMemoryOptions(f *testing.F) {
	nan := math.NaN()
	// 2D flip rates by rate byte.
	rates := [...]float64{nan, math.Inf(1), math.Inf(-1), -0.1, 0, 0.01, 0.05, 0.12, 0.5, 1, 1.5}
	// family, dist, rounds, window, commit, circuit, p, q, pe, qe, aware, correlated, kind, samples, L, rate
	f.Add(uint8(0), uint8(0), uint8(3), int8(0), int8(0), false, nan, 0.01, 0.0, 0.0, false, false, uint8(3), uint8(63), uint8(5), uint8(0))
	f.Add(uint8(0), uint8(1), uint8(3), int8(4), int8(1), true, 0.006, 0.0, 0.01, 0.0, true, true, uint8(3), uint8(40), uint8(5), uint8(7))
	f.Add(uint8(1), uint8(0), uint8(2), int8(3), int8(0), false, 0.03, 0.02, 0.05, 0.02, true, false, uint8(3), uint8(20), uint8(1), uint8(5))
	f.Add(uint8(2), uint8(0), uint8(1), int8(-1), int8(0), true, 1.5, 0.0, 0.0, 0.0, false, false, uint8(2), uint8(8), uint8(3), uint8(10))
	f.Add(uint8(0), uint8(0), uint8(2), int8(0), int8(0), false, 0.03, 0.03, 0.0, 0.0, false, false, uint8(4), uint8(64), uint8(3), uint8(7))
	f.Add(uint8(0), uint8(1), uint8(3), int8(5), int8(2), false, 0.02, 0.02, 0.05, 0.05, true, true, uint8(3), uint8(48), uint8(4), uint8(6))
	f.Fuzz(func(t *testing.T, family, dist, rounds uint8, window, commit int8, circuit bool,
		p, q, pe, qe float64, aware, correlated bool, kindByte, samples, lByte, rateByte uint8) {
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
		kind := toric.DecoderKind(int(kindByte%5) - 1) // −1 and 0 and 3 name no decoder
		l, rate, n2 := int(lByte%7), rates[int(rateByte)%len(rates)], int(samples%65)
		var torus surface.Code
		if l >= 2 {
			torus = toric.Cached(l)
		}
		opts := spacetime.DecodeOptions{ErasureAware: aware, Correlated: correlated}
		type outcome struct {
			vol, str                       Result
			flat                           toric.MemoryResult
			xz                             surface.MemoryResult
			volErr, strErr, flatErr, xzErr error
		}
		done := make(chan outcome, 1)
		go func() {
			var o outcome
			o.vol, o.volErr = VolumeMemory(code, T, m, kind, opts, n, 7)
			o.str, o.strErr = Memory(code, T, m, int(window), int(commit), opts, n, 7)
			o.flat, o.flatErr = toric.MemoryExperiment(l, rate, kind, n2, 7)
			o.xz, o.xzErr = surface.MemoryExperimentXZ(torus, rate, n2, 7)
			done <- o
		}()
		var o outcome
		select {
		case o = <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s d=%d T=%d W=%d/%d model %+v opts %+v kind %d, 2D L=%d p=%v samples %d: a memory call neither returned nor failed",
				code.CodeName(), d, T, window, commit, m, opts, kind, l, rate, n2)
		}
		if kind.Validate() != nil && (o.volErr == nil || o.flatErr == nil) {
			t.Fatalf("kind %d names no decoder, yet a driver ran (volume error %v, 2D error %v)", kind, o.volErr, o.flatErr)
		}
		if kind != toric.DecoderUnionFind {
			return
		}
		if o.flatErr == nil && o.xzErr == nil && o.flat.Failures != o.xz.FailX {
			t.Fatalf("L=%d p=%v samples %d: toric memory fails %d, surface X sector %d", l, rate, n2, o.flat.Failures, o.xz.FailX)
		}
		if o.volErr != nil || o.strErr != nil {
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
