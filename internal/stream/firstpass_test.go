package stream

import (
	"fmt"
	"slices"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/decoder"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// walkFirstPass is the first growth pass of a plain decode of defects on
// g, walked the way the decoder walks it: every defect in list order
// visits its edges in adjacency order (ascending edge id), and a
// lightest edge completes on the visit of its second defect.
func walkFirstPass(g *decoder.Graph, defects []int) []int32 {
	wmin := g.Weight(0)
	for e := range g.Edges() {
		wmin = min(wmin, g.Weight(e))
	}
	pos := make(map[int]int, len(defects))
	for i, v := range defects {
		pos[v] = i
	}
	var grown []int32
	for i, v := range defects {
		for e := range g.Edges() { // v's adjacency, in slot order
			a, b := g.Ends(e)
			if a != v && b != v {
				continue
			}
			y := a + b - v
			if j, ok := pos[y]; ok && j < i && g.Weight(e) == wmin {
				grown = append(grown, int32(e))
			}
		}
	}
	return grown
}

// sweepCheck reads one sector's decode off d's planes, sweeps its first
// passes and holds every lane's list to walkFirstPass and every lane's
// given decode, through the pool, to a walked AppendCorrection. It
// returns how many lanes took a given pass.
func sweepCheck(t *testing.T, d *Decoder, sec *sectorState, g *decoder.Graph, h int, closing []bits.Vec) int {
	t.Helper()
	d.defectLists(sec, h, closing)
	if !d.giveFirstPasses(sec, g, h, closing) {
		t.Fatal("no lane is dense: nothing swept")
	}
	shots := make([]decoder.Shot, d.lanes)
	given := 0
	for lane, defects := range d.defbuf {
		if want := walkFirstPass(g, defects); !slices.Equal(d.corrbuf[lane], want) {
			t.Fatalf("lane %d (h %d): swept %v, walked %v", lane, h, d.corrbuf[lane], want)
		}
		first := append([]int32(nil), d.corrbuf[lane]...)
		shots[lane] = decoder.Shot{Defects: defects, CorrBuf: first, FirstPass: first}
		if !g.Sparse(len(defects)) {
			given++
		}
	}
	bat := decoder.NewBatch(d.lanes)
	if err := d.pool.ResubmitOn(g, bat, shots); err != nil {
		t.Fatal(err)
	}
	uf := decoder.NewUnionFind(g)
	for lane, got := range bat.Wait() {
		want := uf.AppendCorrection(nil, d.defbuf[lane], nil)
		if !slices.Equal(got, want) {
			t.Fatalf("lane %d (h %d): given decode %v, walked %v", lane, h, got, want)
		}
	}
	return given
}

// TestFirstPassesMatchWalk holds the batch sweep to the per-lane walk on
// toric, rotated and planar circuit windows and their closing volumes,
// at lane counts on and off the word size: after enough rounds that the
// window has slid and left carry defects in the base layer, each
// sector's window decode and then its closing decode are swept, and
// every list must be the walked first pass, every given decode the
// walked one.
func TestFirstPassesMatchWalk(t *testing.T) {
	for _, code := range []surface.Code{toric.Cached(4), surface.Rotated(5), surface.Planar(5)} {
		for _, lanes := range []int{64, 100} {
			t.Run(fmt.Sprintf("%s/lanes=%d", code.CodeName(), lanes), func(t *testing.T) {
				const w, rounds = 6, 11 // slides at rounds 7, 10; Finish decodes h = 5
				s, err := NewCodeCircuitSession(code, w, 3, 2, 2, 3)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				d := s.NewDecoder(lanes)
				src := surface.NewCircuitSource(code, noise.Uniform(0.01), lanes, frame.NewAggregateSampler(45, uint64(lanes)))
				layerX, layerZ := bits.NewVecs(d.nc, lanes), bits.NewVecs(d.nc, lanes)
				for range rounds {
					src.NextLayers(layerX, layerZ)
					d.Push(layerX, layerZ)
				}
				carried, given := 0, 0
				for _, sec := range [2]*sectorState{&d.sx, &d.sz} {
					for _, c := range sec.carry {
						carried += c.Weight()
					}
					given += sweepCheck(t, d, sec, sec.graph(s.win.vol), w, nil)
				}
				src.CloseLayers(layerX, layerZ)
				vol := s.win.closingVolume(d.filled)
				for i, sec := range [2]*sectorState{&d.sx, &d.sz} {
					given += sweepCheck(t, d, sec, sec.graph(vol), d.filled, [2][]bits.Vec{layerX, layerZ}[i])
				}
				if carried == 0 || given == 0 {
					t.Fatalf("degenerate: %d carry defects, %d given decodes", carried, given)
				}
			})
		}
	}
}

// TestDenseDecodesTakeFirstPasses pins that the sweep runs where it
// pays and nowhere else: a dense circuit stream's window decode hands
// every plain lane a first pass, and the pool's corrections match the
// walked decode; a quiet stream, every lane under the isolated-pair
// density rule, sweeps nothing and hands no lane a pass.
func TestDenseDecodesTakeFirstPasses(t *testing.T) {
	for _, c := range []struct {
		name  string
		p     float64
		dense bool
	}{{"dense", 0.01, true}, {"quiet", 0.0002, false}} {
		t.Run(c.name, func(t *testing.T) {
			const lanes = 64
			s, err := toricCircuitSession(6, 8, 4, 2, 2, 3)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			d := s.NewDecoder(lanes)
			src := toricCircuit(6, noise.Uniform(c.p), lanes, frame.NewAggregateSampler(46, 1))
			layerX, layerZ := bits.NewVecs(d.nc, lanes), bits.NewVecs(d.nc, lanes)
			for range 8 {
				src.NextLayers(layerX, layerZ)
				d.Push(layerX, layerZ)
			}
			g := s.win.Graph()
			if d.prepSector(&d.sx, s.win.vol, 8, nil); d.err != nil {
				t.Fatal(d.err)
			}
			corr := d.bat.Wait()
			uf := decoder.NewUnionFind(g)
			dense := 0
			for lane, shot := range d.shots {
				if !g.Sparse(len(shot.Defects)) {
					dense++
				}
				if (shot.FirstPass != nil) != c.dense {
					t.Fatalf("lane %d (%d defects): first pass handed over %v, want %v", lane, len(shot.Defects), shot.FirstPass != nil, c.dense)
				}
				if want := uf.AppendCorrection(nil, shot.Defects, nil); !slices.Equal(corr[lane], want) {
					t.Fatalf("lane %d: pool %v, walked %v", lane, corr[lane], want)
				}
			}
			if (dense > 0) != c.dense {
				t.Fatalf("%d of %d lanes past the density rule", dense, lanes)
			}
		})
	}
}
