package main

import (
	"strings"
	"testing"

	"ftqc/internal/stream"
	"ftqc/internal/toric"
)

// TestCheckGrid: the shared flags' defaults and their spellings parse to
// the grid the sweeps run, and each refusal names its flag.
func TestCheckGrid(t *testing.T) {
	g, err := checkGrid(map[string]string{
		"L": "3, 5", "T": "4L", "p": "0.01,0.02", "q": "-1", "samples": "64",
		"decoder": "unionfind", "window": "0", "commit": "0", "seed": "7",
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.ls) != 2 || g.ls[1] != 5 || len(g.ps) != 2 || g.rounds(5) != 20 || g.qOf(0.02) != 0.02 ||
		g.samples != 64 || g.kind != toric.DecoderUnionFind || g.seed != 7 {
		t.Fatalf("grid %+v", g)
	}
	if w, c, _ := g.win(5); w != 10 || c != 5 {
		t.Fatalf("stream's default window at L=5: %d/%d, want 10/5", w, c)
	}
	g, err = checkGrid(map[string]string{"L": "4", "T": "L", "window": "0", "commit": "0"}, false)
	if w, _, _ := g.win(4); err != nil || g.rounds(4) != 4 || w != 0 {
		t.Fatalf("whole-volume grid %+v (err %v)", g, err)
	}
	for _, bad := range []struct {
		flag   string
		v      map[string]string
		slides bool
	}{
		{"L", map[string]string{"L": "3,1"}, false},
		{"L", map[string]string{"L": ""}, false},
		{"p", map[string]string{"p": "NaN"}, false},
		{"T", map[string]string{"T": "0L"}, false},
		{"T", map[string]string{"T": "-3"}, false},
		{"q", map[string]string{"q": "0.5x"}, false},
		{"samples", map[string]string{"samples": "0"}, false},
		{"decoder", map[string]string{"decoder": "greedy"}, false},
		{"window", map[string]string{"window": "1"}, true},
		{"commit", map[string]string{"L": "4", "window": "0", "commit": "2"}, false},
		{"commit", map[string]string{"L": "4", "window": "4", "commit": "4"}, false},
		{"commit", map[string]string{"L": "2,4", "window": "0", "commit": "4"}, true},
	} {
		if _, err := checkGrid(bad.v, bad.slides); err == nil || !strings.HasPrefix(err.Error(), "-"+bad.flag+" ") {
			t.Fatalf("%v: refusal %v should name -%s", bad.v, err, bad.flag)
		}
	}
}

// FuzzGridFlags: any text of the shared flags is either refused or
// describes a grid whose every cell runs — rates are probabilities,
// rounds and samples positive, and each streaming cell's window builds.
// Distances above 32 and windows above 64 rounds are skipped, only to
// keep each input cheap.
func FuzzGridFlags(f *testing.F) {
	f.Add("4,8", "L", "0.01,0.02", "-1", "4000", "uf", "0", "0", true)
	f.Add("3", "4L", "0.5", "0.1", "1", "exact", "4", "1", false)
	f.Add("2,3", "7", "0,1", "0", "64", "unionfind", "0", "3", true)
	f.Add("5", "L", "0.004", "-1", "8", "uf", "6", "0", false)
	f.Add("2,3", "4611686018427387904L", "0.1", "-1", "8", "uf", "0", "0", true)
	f.Fuzz(func(t *testing.T, L, T, p, q, samples, dec, window, commit string, slides bool) {
		g, err := checkGrid(map[string]string{
			"L": L, "T": T, "p": p, "q": q, "samples": samples,
			"decoder": dec, "window": window, "commit": commit,
		}, slides)
		if err != nil {
			return
		}
		for _, x := range g.ps {
			if !isProb(x) {
				t.Fatalf("-p %q gave rate %v", p, x)
			}
		}
		if g.samples < 1 || g.q != -1 && !isProb(g.q) {
			t.Fatalf("samples %d, q %v", g.samples, g.q)
		}
		for _, l := range g.ls {
			if l > 32 {
				continue
			}
			if g.rounds(l) < 1 {
				t.Fatalf("-T %q gives %d rounds at L=%d", T, g.rounds(l), l)
			}
			w, c, _ := g.win(l)
			if w == 0 {
				if g.commit != 0 {
					t.Fatalf("whole-volume cell with -commit %d", g.commit)
				}
				continue
			}
			if w > 64 {
				continue
			}
			if _, err := stream.NewWindow(toric.Cached(l), w, c, 1, 1, 0); err != nil {
				t.Fatalf("L=%d window %d/%d passed the check but does not build: %v", l, w, c, err)
			}
		}
	})
}
