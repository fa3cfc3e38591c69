package spacetime_test

import (
	"testing"

	"ftqc/internal/noise"
	"ftqc/internal/spacetime"
	"ftqc/internal/stream"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// TestGoldenVolumeCounts pins the failure counts of every whole-volume
// Monte Carlo entry point — phenomenological and circuit feeds, exact
// and union-find, erasure-aware, blind and correlated — on recorded
// seeds. The constants were recorded on the code before the batch
// pipelines were merged into one drain, and held when the union-find
// rows moved onto the streaming drain (stream.VolumeMemory, a window
// that never slides); a change that moves one of them has changed which
// shots fail. Fix the change, never the constant.
func TestGoldenVolumeCounts(t *testing.T) {
	const samples = 1000
	leaky := noise.Uniform(0.004)
	leaky.Leak = 0.01
	circuit := noise.Uniform(0.004)
	opts := func(aware, corr bool) spacetime.DecodeOptions {
		return spacetime.DecodeOptions{ErasureAware: aware, Correlated: corr}
	}
	for _, tc := range []struct {
		name         string
		run          func() (stream.Result, error)
		fx, fz, fail int
	}{
		{"CodeMemory/toric4/uf", func() (stream.Result, error) {
			return stream.VolumeMemory(toric.Cached(4), 4, spacetime.Phenomenological(0.03, 0.03, 0, 0), toric.DecoderUnionFind, spacetime.DecodeOptions{}, samples, 901)
		}, 156, 165, 297},
		{"CodeMemory/toric4/exact", func() (stream.Result, error) {
			return stream.VolumeMemory(toric.Cached(4), 4, spacetime.Phenomenological(0.03, 0.03, 0, 0), toric.DecoderExact, spacetime.DecodeOptions{}, samples, 902)
		}, 132, 136, 253},
		{"CodeMemory/rotated5/uf", func() (stream.Result, error) {
			return stream.VolumeMemory(surface.Rotated(5), 5, spacetime.Phenomenological(0.02, 0.02, 0, 0), toric.DecoderUnionFind, spacetime.DecodeOptions{}, samples, 903)
		}, 38, 31, 68},
		{"CodeCircuitMemory/toric4/uf", func() (stream.Result, error) {
			return stream.VolumeMemory(toric.Cached(4), 4, spacetime.Circuit(circuit), toric.DecoderUnionFind, spacetime.DecodeOptions{}, samples, 904)
		}, 20, 22, 41},
		{"CodeCircuitMemory/toric4/exact", func() (stream.Result, error) {
			return stream.VolumeMemory(toric.Cached(4), 4, spacetime.Circuit(circuit), toric.DecoderExact, spacetime.DecodeOptions{}, samples, 905)
		}, 18, 23, 40},
		{"CodeCircuitMemory/planar5/uf", func() (stream.Result, error) {
			return stream.VolumeMemory(surface.Planar(5), 5, spacetime.Circuit(circuit), toric.DecoderUnionFind, spacetime.DecodeOptions{}, samples, 906)
		}, 8, 4, 12},
		{"CodeCircuitMemoryOpts/toric4/blind", func() (stream.Result, error) {
			return stream.VolumeMemory(toric.Cached(4), 4, spacetime.Circuit(leaky), toric.DecoderUnionFind, opts(false, false), samples, 907)
		}, 159, 163, 287},
		{"CodeCircuitMemoryOpts/toric4/aware", func() (stream.Result, error) {
			return stream.VolumeMemory(toric.Cached(4), 4, spacetime.Circuit(leaky), toric.DecoderUnionFind, opts(true, false), samples, 907)
		}, 80, 84, 147},
		{"CodeCircuitMemoryOpts/toric4/correlated", func() (stream.Result, error) {
			return stream.VolumeMemory(toric.Cached(4), 4, spacetime.Circuit(leaky), toric.DecoderUnionFind, opts(false, true), samples, 907)
		}, 159, 129, 248},
		{"CodeCircuitMemoryOpts/toric4/aware+correlated", func() (stream.Result, error) {
			return stream.VolumeMemory(toric.Cached(4), 4, spacetime.Circuit(leaky), toric.DecoderUnionFind, opts(true, true), samples, 907)
		}, 80, 67, 131},
		{"CodeCircuitMemoryOpts/rotated5/blind", func() (stream.Result, error) {
			return stream.VolumeMemory(surface.Rotated(5), 5, spacetime.Circuit(leaky), toric.DecoderUnionFind, opts(false, false), samples, 908)
		}, 66, 83, 137},
		{"CodeCircuitMemoryOpts/rotated5/aware", func() (stream.Result, error) {
			return stream.VolumeMemory(surface.Rotated(5), 5, spacetime.Circuit(leaky), toric.DecoderUnionFind, opts(true, false), samples, 908)
		}, 35, 43, 77},
		{"CodeCircuitMemoryOpts/rotated5/correlated", func() (stream.Result, error) {
			return stream.VolumeMemory(surface.Rotated(5), 5, spacetime.Circuit(leaky), toric.DecoderUnionFind, opts(false, true), samples, 908)
		}, 66, 70, 125},
		{"CodeCircuitMemoryOpts/rotated5/aware+correlated", func() (stream.Result, error) {
			return stream.VolumeMemory(surface.Rotated(5), 5, spacetime.Circuit(leaky), toric.DecoderUnionFind, opts(true, true), samples, 908)
		}, 35, 37, 70},
		{"erasedMemory/toric4/aware", func() (stream.Result, error) {
			return stream.VolumeMemory(toric.Cached(4), 4, spacetime.Phenomenological(0.02, 0.02, 0.1, 0.1), toric.DecoderUnionFind, opts(true, false), samples, 909)
		}, 203, 199, 360},
		{"erasedMemory/toric4/blind", func() (stream.Result, error) {
			return stream.VolumeMemory(toric.Cached(4), 4, spacetime.Phenomenological(0.02, 0.02, 0.1, 0.1), toric.DecoderUnionFind, opts(false, false), samples, 909)
		}, 609, 606, 851},
	} {
		r, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if r.FailX != tc.fx || r.FailZ != tc.fz || r.Failures != tc.fail {
			t.Errorf("%s: FailX/FailZ/Failures = %d / %d / %d, recorded %d / %d / %d",
				tc.name, r.FailX, r.FailZ, r.Failures, tc.fx, tc.fz, tc.fail)
		}
	}
}
