package server

// Sessions draw their windows from stream's process-wide table: an
// explicit window is the one decoded, idle shapes do not accumulate, and
// a shape with open sessions is never rebuilt.

import (
	"runtime"
	"testing"
	"time"
	"weak"

	"ftqc/internal/noise"
	"ftqc/internal/stream"
	"ftqc/internal/toric"
)

// TestOpenKeepsExplicitWindow: Open fills in a window by stream's rule —
// a zero window is 2L, a zero commit half the window — and decodes on
// exactly that shape; a negative size is refused, not defaulted.
func TestOpenKeepsExplicitWindow(t *testing.T) {
	const l, lanes, rounds, seed = 4, 32, 20, 7600
	const p = 0.025
	srv := New(Config{Workers: 2})
	defer srv.Shutdown()
	for _, row := range []struct{ window, commit, wantW, wantC int }{
		{10, 0, 10, 5}, {0, 3, 8, 3}, {6, 2, 6, 2}, {0, 0, 8, 4},
	} {
		cfg := toricPhenomenological(l, lanes, p, p)
		cfg.Window, cfg.Commit = row.window, row.commit
		s, err := srv.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := s.cfg
		s.Close()
		s.Wait()
		if got.Window != row.wantW || got.Commit != row.wantC {
			t.Fatalf("window %d commit %d opened as %d/%d, want %d/%d", row.window, row.commit, got.Window, got.Commit, row.wantW, row.wantC)
		}
		res, err := driveSession(srv, cfg, noise.Params{}, p, p, rounds, seed)
		if err != nil {
			t.Fatal(err)
		}
		refX, refZ, _ := standaloneFrames(t, got, noise.Params{}, p, p, rounds, seed, true)
		if !framesEqual(res.FramesX, res.FramesZ, refX, refZ) {
			t.Fatalf("window %d commit %d: frames differ from a standalone %d/%d stream", row.window, row.commit, row.wantW, row.wantC)
		}
	}
	for _, bad := range [][2]int{{-1, 0}, {8, -2}, {-8, 4}} {
		cfg := toricPhenomenological(l, lanes, p, p)
		cfg.Window, cfg.Commit = bad[0], bad[1]
		if _, err := srv.Open(cfg); err == nil {
			t.Errorf("window %d commit %d accepted", bad[0], bad[1])
		}
	}
}

// settleShapes collects until the table holds at most `want` shapes or
// the tries run out, and returns what it holds: a freed window's entry
// goes when its cleanup runs, after the collection.
func settleShapes(want int) int {
	for try := 0; try < 200 && stream.Shapes() > want; try++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	return stream.Shapes()
}

// heapInUse is the live heap after two collections — the second frees
// what the cleanups and finalizers the first one queued let go of.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

// TestShapeTableBounded: ten thousand open/close cycles, each a distinct
// valid weight triple, leave the table holding only the shapes still
// open and the heap where it was, while a session held open across them
// keeps its window.
func TestShapeTableBounded(t *testing.T) {
	cycles := 10000
	if testing.Short() {
		cycles = 1000
	}
	const slackMB = 8
	srv := New(Config{Workers: 1, QueueDepth: 1})
	defer srv.Shutdown()
	live, err := srv.Open(toricPhenomenological(3, 1, 0.02, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	base := settleShapes(0)
	code := toric.Cached(3)
	cycle := func(i int) {
		cfg := SessionConfig{Code: code, Lanes: 1, Window: 2, Commit: 1, WH: 1 + i%25, WV: 1 + i/25%20, WD: i / 500}
		s, err := srv.Open(cfg)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		s.Close()
		if _, err := s.Wait(); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	for i := 0; i < 100; i++ {
		cycle(i) // the map and pools reach their working size
	}
	heap0 := heapInUse()
	for i := 100; i < cycles; i++ {
		cycle(i)
	}
	if n := settleShapes(base); n > base {
		t.Fatalf("%d open/close cycles left %d shapes interned, %d before", cycles, n, base)
	}
	if grown := (int64(heapInUse()) - int64(heap0)) >> 10; grown > slackMB<<10 {
		t.Fatalf("%d open/close cycles grew the heap in use by %d KB", cycles, grown)
	} else {
		t.Logf("%d open/close cycles: heap in use %+d KB, %d shapes interned", cycles, grown, stream.Shapes())
	}
	reopened, err := srv.Open(live.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.win != live.win {
		t.Fatal("the open session's shape was rebuilt")
	}
	for _, s := range []*Session{live, reopened} {
		s.Close()
		s.Wait()
	}
}

// TestEvictedShapeReopens: once nothing holds a shape its window is
// freed, and the shape opened again commits the frames of a standalone
// session.
func TestEvictedShapeReopens(t *testing.T) {
	const l, lanes, rounds, seed = 4, 32, 18, 7700
	P := noise.Uniform(0.004)
	cfg := toricCircuitLevel(l, lanes, P)
	cfg.WH += 7 // a shape no other test opens
	refX, refZ, _ := standaloneFrames(t, cfg, P, 0, 0, rounds, seed, true)
	srv := New(Config{Workers: 2})
	defer srv.Shutdown()
	freed := func() weak.Pointer[stream.Window] {
		s, err := srv.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		s.Wait()
		return weak.Make(s.win)
	}()
	for try := 0; try < 200 && freed.Value() != nil; try++ {
		runtime.GC()
	}
	if freed.Value() != nil {
		t.Fatal("a shape no session holds stayed alive")
	}
	for pass := 0; pass < 2; pass++ {
		res, err := driveSession(srv, cfg, P, 0, 0, rounds, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !framesEqual(res.FramesX, res.FramesZ, refX, refZ) {
			t.Fatalf("pass %d: the reopened shape's frames differ from a standalone session", pass)
		}
	}
}

// TestOpenShapeKeepsItsWindow is the fleet pattern: eight sessions of
// one shape, closed and reopened in turn with collections in between.
// While any of them is open the shape keeps its *Window — no reopen
// rebuilds graphs, closing volumes or scratch.
func TestOpenShapeKeepsItsWindow(t *testing.T) {
	const slots = 8
	srv := New(Config{Workers: 2})
	defer srv.Shutdown()
	cfg := toricCircuitLevel(5, 16, noise.Uniform(0.003))
	open := make([]*Session, slots)
	for i := range open {
		s, err := srv.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		open[i] = s
	}
	win := weak.Make(open[0].win) // identity without holding the window
	for i := range open {
		open[i].Close()
		open[i].Wait()
		open[i] = nil
		runtime.GC()
		runtime.GC()
		s, err := srv.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if weak.Make(s.win) != win {
			t.Fatalf("reopen %d rebuilt the window of a shape with %d sessions open", i, slots-1)
		}
		open[i] = s
	}
	for _, s := range open {
		s.Close()
		s.Wait()
	}
}
