// Package oracle_test holds every decode path to one reference on one
// table of cases: for W ≥ T the whole volume decoded from scratch, lane
// by lane; for W < T, where a window commits other frames than the
// whole volume by design, a one-worker stream.Decoder on a fresh window.
// Every path decodes the cases' recorded frame.ForEachChunk chunks and
// must commit the reference's per-lane frames (the Monte Carlo drivers:
// its failure counts). A path is one more step in check or fleet, a
// case one more row in cases.
package oracle_test

import (
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/decoder"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/server"
	"ftqc/internal/spacetime"
	"ftqc/internal/stream"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// tc is one case: T rounds of a code under a model through a W-layer
// window committing C per slide, decoded with opts, over samples shots.
type tc struct {
	code                   surface.Code
	m                      spacetime.Model
	opts                   spacetime.DecodeOptions
	rounds, window, commit int
	samples                int
	seed                   uint64
}

func (c tc) String() string {
	return fmt.Sprintf("%s-%d %+v %+v T=%d W=%d C=%d samples=%d seed=%d",
		c.code.CodeName(), c.code.Distance(), c.m, c.opts, c.rounds, c.window, c.commit, c.samples, c.seed)
}

// weights are Memory's: priced over the rounds for a phenomenological
// model, over the window for a circuit-level one.
func (c tc) weights() (wh, wv, wd int) {
	if c.m.CircuitLevel() {
		return c.m.Weights(c.code.Distance(), c.window)
	}
	return c.m.Weights(c.code.Distance(), c.rounds)
}

func (c tc) sliding() bool { return c.window < c.rounds }

func (c tc) newWindow(t testing.TB) *stream.Window {
	wh, wv, wd := c.weights()
	win, err := stream.NewWindow(c.code, c.window, c.commit, wh, wv, wd)
	if err != nil {
		t.Fatal(err)
	}
	return win
}

func phenom(p, q, pe, qe float64) spacetime.Model { return spacetime.Phenomenological(p, q, pe, qe) }

func circuit(eps, leak, bias float64) spacetime.Model {
	P := noise.Uniform(eps)
	P.Leak, P.Bias = leak, bias
	return spacetime.Circuit(P)
}

// measHeavy and measHeavier are non-uniform circuit noise under which
// the weights depend on the horizon they are priced over: at d = 3 the
// first prices (6,5,12) over one layer and (8,5,12) over two or more,
// the second (7,3,12) over two layers and (3,1,4) over three or more.
// A one-round case decodes its exact reference over one layer and its
// union-find reference over the two-layer window.
var (
	measHeavy   = spacetime.Circuit(noise.Params{Gate1: 0.006, Gate2: 0.006, Prep: 0.006, Storage: 1e-3, Meas: 0.05})
	measHeavier = spacetime.Circuit(noise.Params{Gate1: 0.001, Gate2: 0.001, Prep: 0.001, Storage: 1e-4, Meas: 0.1})
)

var (
	plain, aware     = spacetime.DecodeOptions{}, spacetime.DecodeOptions{ErasureAware: true}
	correlated, both = spacetime.DecodeOptions{Correlated: true}, spacetime.DecodeOptions{ErasureAware: true, Correlated: true}
)

// chunk is one chunk's feed: each round's layers (the closing round
// last), erasure planes (eraH, lostX, lostZ) if read, and windings.
type chunk struct {
	x, z [][]bits.Vec
	era  [][3][]bits.Vec
	wind [4]bits.Vec
}

func (k *chunk) lanes() int { return k.wind[0].Len() }

// record drains a feed, through NextLayersErased if Erasing or erased.
func record(c tc, lanes int, smp frame.Sampler, erased bool) chunk {
	src := c.m.Source(c.code, lanes, smp)
	nq, nc := c.code.Qubits(), c.code.Checks()
	var k chunk
	for t := 0; t <= c.rounds; t++ {
		x, z := bits.NewVecs(nc, lanes), bits.NewVecs(nc, lanes)
		switch {
		case t == c.rounds:
			src.CloseLayers(x, z)
		case erased || src.Erasing():
			e := [3][]bits.Vec{bits.NewVecs(nq, lanes), bits.NewVecs(nc, lanes), bits.NewVecs(nc, lanes)}
			src.NextLayersErased(x, z, e[0], e[1], e[2])
			k.era = append(k.era, e)
		default:
			src.NextLayers(x, z)
		}
		k.x, k.z = append(k.x, x), append(k.z, z)
	}
	k.wind = [4]bits.Vec(bits.NewVecs(4, lanes))
	src.Windings(k.wind[0], k.wind[1], k.wind[2], k.wind[3])
	return k
}

// frames are per-lane committed frames, X sector then Z.
type frames [2][]bits.Vec

// score adds to n the lanes whose frames fail against the windings: in
// X, in Z and in either.
func score(n *[3]int, code surface.Code, k *chunk, f frames) {
	for lane := range f[0] {
		x1, x2 := code.LogicalParity(false, f[0][lane])
		z1, z2 := code.LogicalParity(true, f[1][lane])
		fx := x1 != k.wind[0].Get(lane) || x2 != k.wind[1].Get(lane)
		fz := z1 != k.wind[2].Get(lane) || z2 != k.wind[3].Get(lane)
		for i, f := range [3]bool{fx, fz, fx || fz} {
			if f {
				n[i]++
			}
		}
	}
}

// run is a case with its chunks, their reference frames and scores;
// exact scores the exact matcher if hasExact (W ≥ T, plain torus, no
// erasure, no options); swept: a stream would sweep first passes.
type run struct {
	tc
	ks              []chunk
	ref             []frames
	counts, exact   [3]int
	hasExact, swept bool
}

func reference(t testing.TB, c tc) *run {
	r := &run{tc: c}
	var mu sync.Mutex
	frame.ForEachChunk(c.samples, c.seed, func(lanes int, smp frame.Sampler) {
		k := record(c, lanes, smp, false)
		mu.Lock()
		r.ks = append(r.ks, k)
		mu.Unlock()
	})
	_, torus := c.code.(*toric.Lattice)
	_, _, pe, qe := c.m.Rates()
	r.hasExact = !c.sliding() && torus && pe == 0 && qe == 0 && c.opts == plain
	if c.sliding() {
		pool := decoder.NewPool(1)
		var slides int
		r.ref, slides = r.decode(t, pool, c.newWindow(t), c.opts, false)
		pool.Close()
		if slides == 0 {
			t.Fatalf("%v: degenerate, the sliding reference never slid", c)
		}
	}
	for i := range r.ks {
		if !c.sliding() {
			r.ref = append(r.ref, r.volume(&r.ks[i]))
		}
		score(&r.counts, c.code, &r.ks[i], r.ref[i])
	}
	return r
}

// volume decodes each lane of a chunk from scratch over the whole
// volume, primal then dual: with ErasureAware its canonical erased list
// (Volume.AppendErased) seeds the peeling, and a correlated dual adds
// the counterparts of the lane's primal correction (Volume.Reprice).
// Union-find prices as Memory does; exact matching over the rounds, as
// VolumeMemory's exact kind does.
func (r *run) volume(k *chunk) frames {
	wh, wv, wd := r.weights()
	v := spacetime.NewVolume(r.code, r.rounds, wh, wv, wd)
	xh, xv, xd := r.m.Weights(r.code.Distance(), r.rounds)
	vx := spacetime.NewVolume(r.code, r.rounds, xh, xv, xd)
	nc, lanes := r.code.Checks(), k.lanes()
	var erased [2][][]int
	for s := range erased {
		erased[s] = make([][]int, lanes)
		if r.opts.ErasureAware && k.era != nil {
			v.AppendErased(erased[s], func(t int) ([]bits.Vec, []bits.Vec) { return k.era[t][0], k.era[t][1+s] })
		}
	}
	uf := decoder.NewUnionFind(v.Graph())
	mask := bits.NewVec(v.Graph().Edges())
	f := frames{make([]bits.Vec, lanes), make([]bits.Vec, lanes)}
	ex := frames{make([]bits.Vec, lanes), make([]bits.Vec, lanes)}
	for lane := range lanes {
		var primal []int32 // the primal correction a correlated dual reprices from
		for s, layers := range [2][][]bits.Vec{k.x, k.z} {
			var defects []int
			for i := range (r.rounds + 1) * nc {
				if layers[i/nc][i%nc].Get(lane) {
					defects = append(defects, i)
				}
			}
			era := erased[s][lane]
			switch {
			case s == 1 && r.opts.Correlated:
				era = v.Reprice(era, primal, mask)
			case r.opts.Correlated && len(defects) > 0:
				primal = uf.AppendCorrection(nil, defects, era)
			}
			r.swept = r.swept || len(era) == 0 && ![2]*decoder.Graph{v.Graph(), v.DualGraph()}[s].Sparse(len(defects))
			f[s][lane] = v.Decode(defects, era, toric.DecoderUnionFind, s == 1)
			if r.hasExact {
				ex[s][lane] = vx.Decode(defects, nil, toric.DecoderExact, s == 1)
			}
		}
	}
	if r.hasExact {
		score(&r.exact, r.code, k, ex)
	}
	return f
}

// same fails the test unless a path committed chunk i's reference frames.
func (r *run) same(t testing.TB, path string, i int, got frames, err error) {
	t.Helper()
	if err != nil {
		t.Errorf("%v: %s: %v", r.tc, path, err)
		return
	}
	for s, want := range r.ref[i] {
		if !slices.EqualFunc(got[s], want, bits.Vec.Equal) {
			t.Errorf("%v: %s commits other frames than the reference (chunk %d, sector %d)", r.tc, path, i, s)
		}
	}
}

// counted fails the test unless a Monte Carlo driver counted want.
func (r *run) counted(t testing.TB, path string, res stream.Result, err error, want [3]int) {
	if got := [3]int{res.FailX, res.FailZ, res.Failures}; err != nil || got != want {
		t.Errorf("%v: %s fails %v (err %v), the reference frames %v", r.tc, path, got, err, want)
	}
}

// decode pushes every chunk through a decoder with opts on one window
// and pool — PushErased with its erasure planes, with empty ones if
// zero, else Push — and returns their frames and slides.
func (r *run) decode(t testing.TB, pool *decoder.Service, win *stream.Window, opts spacetime.DecodeOptions, zero bool) (out []frames, slides int) {
	nq, nc := r.code.Qubits(), r.code.Checks()
	for _, k := range r.ks {
		d := stream.NewSessionOn(pool, win).NewDecoderOpts(k.lanes(), opts)
		none := [3][]bits.Vec{bits.NewVecs(nq, k.lanes()), bits.NewVecs(nc, k.lanes()), bits.NewVecs(nc, k.lanes())}
		for i := range r.rounds {
			switch {
			case k.era != nil:
				d.PushErased(k.x[i], k.z[i], k.era[i][0], k.era[i][1], k.era[i][2])
			case zero:
				d.PushErased(k.x[i], k.z[i], none[0], none[1], none[2])
			default:
				d.Push(k.x[i], k.z[i])
			}
		}
		if d.Finish(k.x[r.rounds], k.z[r.rounds]); d.Err() != nil {
			t.Error(d.Err())
		}
		x, z := d.Corrections()
		out, slides = append(out, frames{x, z}), slides+d.Slides()
	}
	return out, slides
}

// check holds every path but the fleet's to r's reference.
func check(t *testing.T, r *run) {
	onPool := func(path string, workers int, win *stream.Window, opts spacetime.DecodeOptions, zero bool) {
		pool := decoder.NewPool(workers)
		defer pool.Close()
		got, _ := r.decode(t, pool, win, opts, zero)
		for i := range got {
			r.same(t, fmt.Sprintf("%s on %d workers", path, workers), i, got[i], nil)
		}
	}
	onPool("a private pool", 1, r.newWindow(t), r.opts, false)
	onPool("a private pool", 3, r.newWindow(t), r.opts, false)
	win := r.newWindow(t)
	var wg sync.WaitGroup
	for _, workers := range []int{2, 3} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			onPool("one window on two shared pools at once", workers, win, r.opts, false)
		}()
	}
	wg.Wait()
	if r.ks[0].era == nil { // nothing to erase: an erasure-aware decoder fed empty planes
		opts := r.opts
		opts.ErasureAware = true
		onPool("PushErased with empty planes", 2, r.newWindow(t), opts, true)
	}
	// The Monte Carlo drivers at one and then at four procs, where the
	// drains take the decoders the first call freed and Reset its feeds.
	wh, wv, wd := r.weights()
	vh, vv, vd := r.m.Weights(r.code.Distance(), max(r.rounds, 2))
	volume := !r.sliding() && wh == vh && wv == vv && wd == vd
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		if r.samples > 128 {
			res, err := stream.Memory(r.code, r.rounds, r.m, r.window, r.commit, r.opts, r.samples, r.seed)
			r.counted(t, fmt.Sprintf("Memory at GOMAXPROCS %d", procs), res, err, r.counts)
		}
		if volume {
			res, err := stream.VolumeMemory(r.code, r.rounds, r.m, toric.DecoderUnionFind, r.opts, r.samples, r.seed)
			r.counted(t, fmt.Sprintf("VolumeMemory at GOMAXPROCS %d", procs), res, err, r.counts)
		}
		if volume && r.hasExact {
			res, err := stream.VolumeMemory(r.code, r.rounds, r.m, toric.DecoderExact, r.opts, r.samples, r.seed)
			r.counted(t, fmt.Sprintf("exact VolumeMemory at GOMAXPROCS %d", procs), res, err, r.exact)
		}
	}
	// A leak-free circuit feed's erased round emits its plain round's
	// planes and erases nothing.
	if r.m.CircuitLevel() && r.ks[0].era == nil {
		a := record(r.tc, min(r.samples, 128), frame.NewAggregateSampler(r.seed, 1), false)
		b := record(r.tc, min(r.samples, 128), frame.NewAggregateSampler(r.seed, 1), true)
		planes := func(k chunk) []bits.Vec {
			return slices.Concat(slices.Concat(k.x...), slices.Concat(k.z...), k.wind[:])
		}
		erased := slices.ContainsFunc(b.era, func(e [3][]bits.Vec) bool { return slices.ContainsFunc(slices.Concat(e[:]...), bits.Vec.Any) })
		if erased || !slices.EqualFunc(planes(a), planes(b), bits.Vec.Equal) {
			t.Errorf("%v: NextLayersErased emits other planes than NextLayers, or erases", r.tc)
		}
	}
}

// fleet opens every chunk of every case the server takes (no erasure
// planes, no options) as a session on one server at once, at one and at
// three workers, then plain-torus ones within the wire's limits over
// net.Pipe through ServeConn. It returns how many sessions it opened.
func fleet(t *testing.T, runs []*run) (n int) {
	for _, workers := range []int{1, 3} {
		srv := server.New(server.Config{Workers: workers})
		var wg sync.WaitGroup
		n = 0
		for _, r := range runs {
			wh, wv, wd := r.weights()
			wire := r.code.CodeName() == "toric" && r.window <= 4*r.code.Distance() && max(wh, wv, wd) <= 1024
			for i := range r.ks {
				if r.ks[0].era != nil || r.opts != plain {
					break
				}
				n++
				cfg := server.SessionConfig{Code: r.code, Lanes: r.ks[i].lanes(), Window: r.window, Commit: r.commit, WH: wh, WV: wv, WD: wd}
				wg.Add(1)
				go func() {
					defer wg.Done()
					got, err := serve(srv, cfg, &r.ks[i], false)
					r.same(t, fmt.Sprintf("a server session at %d workers", workers), i, got, err)
					if wire {
						got, err = serve(srv, cfg, &r.ks[i], true)
						r.same(t, fmt.Sprintf("the wire at %d workers", workers), i, got, err)
					}
				}()
			}
		}
		wg.Wait()
		srv.Shutdown()
	}
	return n
}

// serve streams a chunk into a server session, in process or over
// net.Pipe through ServeConn.
func serve(srv *server.Server, cfg server.SessionConfig, k *chunk, wire bool) (frames, error) {
	var round func(x, z []bits.Vec) error
	var finish func(x, z []bits.Vec) (server.SessionResult, error)
	if wire {
		client, side := net.Pipe()
		defer client.Close()
		go func() { _ = srv.ServeConn(side); side.Close() }() // its refusals reach the client as a closed pipe
		conn := server.Dial(client)
		if err := conn.Open(cfg); err != nil {
			return frames{}, err
		}
		round, finish = conn.Round, conn.Finish
	} else {
		s, err := srv.Open(cfg)
		if err != nil {
			return frames{}, err
		}
		round, finish = s.Submit, func(x, z []bits.Vec) (server.SessionResult, error) {
			if err := s.CloseWith(x, z); err != nil {
				return server.SessionResult{}, err
			}
			return s.Wait()
		}
	}
	T := len(k.x) - 1
	for r := range T {
		if err := round(k.x[r], k.z[r]); err != nil {
			return frames{}, err
		}
	}
	res, err := finish(k.x[T], k.z[T])
	return frames{res.FramesX, res.FramesZ}, err
}

// cases spans the four families, both models with their erasure, leak
// and bias channels, every option set, W = T, W > T and W < T, and 1,
// 100 and over 128 lanes, the replaced suites' rows among them.
var cases = []tc{
	// Toric windows over the whole stream, phenomenological and circuit-level.
	{toric.Cached(3), phenom(0.05, 0.05, 0, 0), plain, 2, 2, 1, 192, 901},
	{toric.Cached(4), phenom(0.03, 0.03, 0, 0), plain, 4, 4, 2, 192, 902},
	{toric.Cached(4), phenom(0.03, 0.06, 0, 0), plain, 4, 7, 3, 192, 903},
	{toric.Cached(5), phenom(0.08, 0.02, 0, 0), plain, 3, 5, 1, 192, 904},
	{toric.Cached(4), phenom(0.06, 0.04, 0, 0), plain, 1, 2, 1, 192, 905},
	{toric.Cached(4), phenom(0.03, 0.03, 0, 0), plain, 4, 4, 1, 300, 513},
	{toric.Cached(3), circuit(0.01, 0, 0), plain, 2, 2, 1, 192, 951},
	{toric.Cached(4), circuit(0.006, 0, 0), plain, 4, 4, 2, 192, 952},
	{toric.Cached(4), circuit(0.01, 0, 0), plain, 4, 7, 3, 192, 953},
	{toric.Cached(5), circuit(0.004, 0, 0), plain, 3, 5, 1, 192, 954},
	{toric.Cached(4), circuit(0.004, 0, 0), plain, 4, 4, 1, 300, 35},
	{toric.Cached(4), circuit(0.008, 0, 0), plain, 4, 4, 1, 192, 707},
	// Erasure channels and options over the whole stream.
	{toric.Cached(4), circuit(0.006, 0.01, 0), aware, 4, 4, 1, 192, 971},
	{toric.Cached(4), circuit(0.006, 0.01, 0), plain, 4, 4, 1, 192, 972},
	{toric.Cached(4), circuit(0.006, 0.008, 0), both, 4, 4, 1, 192, 973},
	{toric.Cached(4), circuit(0.008, 0, 0), correlated, 4, 4, 1, 192, 974},
	{toric.Cached(3), circuit(0.01, 0.02, 0), aware, 2, 2, 1, 192, 975},
	{toric.Cached(5), circuit(0.004, 0.006, 0), both, 3, 3, 1, 192, 976},
	{toric.Cached(4), phenom(0.02, 0.02, 0.03, 0.03), aware, 4, 4, 1, 192, 977},
	{toric.Cached(4), phenom(0.02, 0.02, 0.05, 0.02), both, 3, 5, 1, 192, 978},
	{toric.Cached(3), phenom(0.03, 0.03, 0.02, 0.04), correlated, 5, 5, 1, 192, 979},
	{toric.Cached(5), phenom(0.03, 0.03, 0.06, 0), aware, 2, 3, 1, 192, 981},
	{toric.Cached(4), phenom(0.02, 0.02, 0.05, 0.05), plain, 3, 3, 1, 192, 981},
	{toric.Cached(4), circuit(0.006, 0.004, 0), both, 4, 4, 1, 300, 505},
	{toric.Cached(4), phenom(0.02, 0.02, 0.08, 0.08), aware, 3, 3, 1, 300, 617},
	// Sliding windows.
	{toric.Cached(4), circuit(0.005, 0.008, 0), aware, 12, 5, 2, 192, 983},
	{toric.Cached(4), circuit(0.007, 0, 0), plain, 10, 5, 2, 192, 984},
	{toric.Cached(4), phenom(0.03, 0.03, 0, 0), plain, 12, 8, 4, 300, 907},
	{toric.Cached(4), circuit(0.006, 0, 0), plain, 10, 5, 2, 300, 957},
	{toric.Cached(4), circuit(0.006, 0.006, 0), both, 10, 5, 2, 400, 979},
	{toric.Cached(3), phenom(0.03, 0.03, 0, 0), plain, 9, 4, 2, 96, 913},
	{toric.Cached(4), phenom(0.02, 0.02, 0, 0), plain, 11, 6, 3, 96, 914},
	{toric.Cached(5), phenom(0.04, 0.04, 0, 0), plain, 8, 5, 1, 96, 915},
	{toric.Cached(4), phenom(0.025, 0.025, 0, 0), plain, 20, 8, 4, 48, 7900},
	{toric.Cached(4), phenom(0.02, 0.02, 0, 0), plain, 16, 8, 4, 300, 13},
	{toric.Cached(4), phenom(0.01, 0.01, 0.02, 0.02), aware, 12, 5, 2, 192, 985},
	{toric.Cached(8), circuit(0.003, 0, 0), plain, 40, 16, 8, 64, 7000},
	// The other families and schedules, bias, 1 and 100 lanes.
	{surface.Planar(3), phenom(0.04, 0.04, 0, 0), plain, 6, 3, 1, 100, 1},
	{surface.Planar(3), circuit(0.004, 0, 0), plain, 11, 6, 3, 300, 38},
	{surface.Rotated(3), phenom(0.02, 0.01, 0, 0), plain, 11, 6, 3, 48, 31},
	{surface.Rotated(3), circuit(0.006, 0, 0), plain, 3, 3, 1, 300, 9},
	{surface.Planar(4), circuit(0.006, 0.004, 0), both, 5, 5, 2, 300, 2},
	{surface.Planar(3), circuit(0.01, 0, 4), plain, 3, 6, 2, 200, 3},
	{surface.Rotated(3), circuit(0.008, 0, 5), plain, 8, 4, 2, 200, 4},
	{surface.Rotated(5), phenom(0.03, 0.03, 0.03, 0.03), correlated, 4, 6, 3, 100, 5},
	{surface.Rotated(3), phenom(0.05, 0.05, 0.05, 0), aware, 7, 3, 2, 150, 6},
	{toric.HookParallel(4), circuit(0.006, 0.006, 2), aware, 6, 3, 1, 150, 7},
	{toric.HookParallel(3), circuit(0.01, 0, 0), correlated, 3, 3, 1, 100, 8},
	{toric.HookParallel(3), circuit(0.03, 0, 0), plain, 3, 3, 2, 1, 9},
	{toric.Cached(3), phenom(0.1, 0.1, 0, 0), plain, 5, 2, 1, 1, 10},
	// Non-uniform circuit noise: Memory prices over the window, exact
	// VolumeMemory over the rounds, and here the two horizons differ.
	{toric.Cached(3), measHeavy, plain, 1, 2, 1, 300, 61},
	{toric.Cached(3), measHeavier, plain, 6, 2, 1, 300, 63},
	{toric.Cached(4), measHeavy, plain, 1, 2, 1, 400, 104},
}

// checkAll holds every path of every case to its reference, then the
// fleet. With strict, once every case ran (-run may skip some), the
// table must tell paths apart: a reference lane fails in each case, a
// W ≥ T case sweeps first passes, and the fleet holds 16 sessions.
func checkAll(t *testing.T, cs []tc, strict bool) {
	var runs []*run
	swept := false
	for i, c := range cs {
		t.Run(fmt.Sprintf("%02d-%s-%d-T%dW%d", i, c.code.CodeName(), c.code.Distance(), c.rounds, c.window), func(t *testing.T) {
			r := reference(t, c)
			if strict && r.counts[2] == 0 {
				t.Fatalf("%v: degenerate, no reference lane fails", c)
			}
			swept = swept || r.swept && !c.sliding()
			check(t, r)
			runs = append(runs, r)
		})
	}
	n := fleet(t, runs)
	if strict && len(runs) == len(cs) && (!swept || n < 16) {
		t.Errorf("degenerate table: a case over the whole stream sweeps first passes: %v; %d fleet sessions, want 16", swept, n)
	}
}

func TestOracle(t *testing.T) { checkAll(t, cases, true) }

// FuzzOracle holds every path to the reference on one case: any family
// at distance 3–4 (rotated 3 or 5); phenomenological rates up to 0.08,
// or a circuit rate up to 0.015, leak up to 0.02 and bias up to 16; 1–10
// rounds through a 2–9 layer window; 1–300 lanes; any options (none
// without an erasure channel, which Memory refuses); any seed.
//
//	go test -run '^$' -fuzz=FuzzOracle -fuzztime=10s ./internal/oracle/
func FuzzOracle(f *testing.F) {
	f.Add(uint8(0), uint8(1), true, uint8(100), uint8(0), uint8(120), uint8(0), uint8(3), uint8(2), uint8(1), uint8(7), uint16(191), true, true, uint64(1))
	f.Add(uint8(1), uint8(0), false, uint8(90), uint8(60), uint8(40), uint8(40), uint8(0), uint8(4), uint8(2), uint8(9), uint16(99), true, false, uint64(2))
	f.Add(uint8(2), uint8(1), true, uint8(150), uint8(0), uint8(0), uint8(0), uint8(50), uint8(0), uint8(0), uint8(2), uint16(0), false, true, uint64(3))
	f.Add(uint8(3), uint8(0), true, uint8(200), uint8(0), uint8(100), uint8(0), uint8(30), uint8(7), uint8(5), uint8(4), uint16(140), true, false, uint64(4))
	f.Fuzz(func(t *testing.T, family, dist uint8, circ bool, p, q, pe, qe, bias, window, commit, rounds uint8, lanes uint16, aw, corr bool, seed uint64) {
		rate := func(b uint8, top float64) float64 { return float64(b) / 255 * top }
		d := 3 + int(dist%2)
		codes := []surface.Code{toric.Cached(d), surface.Planar(d), surface.Rotated(3 + 2*int(dist%2)), toric.HookParallel(d)}
		c := tc{code: codes[family%4], opts: spacetime.DecodeOptions{ErasureAware: aw, Correlated: corr}, rounds: 1 + int(rounds%10),
			window: 2 + int(window%8), samples: 1 + int(lanes%300), seed: seed}
		c.commit = 1 + int(commit)%(c.window-1)
		c.m = circuit(rate(p, 0.015), rate(pe, 0.02), float64(bias%64)/4)
		if !circ {
			c.m = phenom(rate(p, 0.08), rate(q, 0.08), rate(pe, 0.08), rate(qe, 0.08))
			if pe == 0 && qe == 0 {
				c.opts = plain
			}
		}
		checkAll(t, []tc{c}, false)
	})
}
