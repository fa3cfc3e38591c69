package server

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"ftqc/internal/bits"
	"ftqc/internal/noise"
	"ftqc/internal/stream"
)

// freeScratch returns the live scratch on the server's free list, for
// tests; holding the result keeps it alive.
func freeScratch(srv *Server) []*scratch {
	srv.freeMu.Lock()
	defer srv.freeMu.Unlock()
	var live []*scratch
	for _, list := range srv.free {
		for _, wp := range list {
			if sc := wp.Value(); sc != nil {
				live = append(live, sc)
			}
		}
	}
	return live
}

// TestWarmWireSessionAllocs is the wire path's allocation gate: warm
// sessions of the benchmark's wire shape (toric L = 8, circuit-level,
// 64 lanes, 64 rounds) over one net.Pipe, client and server counted
// together, allocate at most 2 KiB in 12 objects each — the session's
// handle, its channels and its goroutine, while the decoder, the queue
// buffers, the wire buffers and the client's frames are recycled. The
// smallest of three sets' averages is taken, so a collection that frees
// the idle scratch in one set (the free list is weak) does not decide
// it; at GOGC=off none does. Every warm session commits the first one's
// frames, which are the standalone stream's.
func TestWarmWireSessionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the alloc pin runs in the uninstrumented suite")
	}
	const l, lanes, rounds, seed = 8, 64, 64, 5300
	const sets, perSet = 3, 50
	P := noise.Uniform(0.003)
	cfg := toricCircuitLevel(l, lanes, P)
	refX, refZ, _ := standaloneFrames(t, cfg, P, 0, 0, rounds, seed, true)
	src := newFeed(cfg, P, 0, 0, seed)
	nc := cfg.Code.Checks()
	xs, zs := make([][]bits.Vec, rounds+1), make([][]bits.Vec, rounds+1)
	for r := range xs {
		xs[r], zs[r] = bits.NewVecs(nc, lanes), bits.NewVecs(nc, lanes)
		if r < rounds {
			src.NextLayers(xs[r], zs[r])
		} else {
			src.CloseLayers(xs[r], zs[r])
		}
	}

	srv := New(Config{})
	defer srv.Shutdown()
	client, side := net.Pipe()
	served := make(chan error, 1)
	go func() {
		for {
			if err := srv.ServeConn(side); err != nil {
				side.Close()
				served <- err
				return
			}
		}
	}()
	conn := Dial(client)
	session := func() SessionResult {
		err := conn.Open(cfg)
		for r := 0; r < rounds && err == nil; r++ {
			err = conn.Round(xs[r], zs[r])
		}
		var res SessionResult
		if err == nil {
			res, err = conn.Finish(xs[rounds], zs[rounds])
		}
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := session(); !framesEqual(res.FramesX, res.FramesZ, refX, refZ) {
		t.Fatal("the first wire session's frames differ from the standalone stream")
	}
	for range 3 {
		session()
	}
	bestBytes, bestAllocs := uint64(1<<63), uint64(1<<63)
	for set := 0; set < sets; set++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var res SessionResult
		for range perSet {
			res = session()
		}
		runtime.ReadMemStats(&m1)
		if !framesEqual(res.FramesX, res.FramesZ, refX, refZ) {
			t.Fatalf("set %d: a warm session's frames differ from the standalone stream", set)
		}
		b, a := (m1.TotalAlloc-m0.TotalAlloc)/perSet, (m1.Mallocs-m0.Mallocs)/perSet
		t.Logf("set %d: %d B in %d objects per warm session", set, b, a)
		bestBytes, bestAllocs = min(bestBytes, b), min(bestAllocs, a)
	}
	client.Close()
	if err := <-served; err != io.EOF {
		t.Fatalf("ServeConn after the client hung up: %v, want io.EOF", err)
	}
	if bestBytes > 2048 || bestAllocs > 12 {
		t.Fatalf("a warm wire session allocates %d B in %d objects, want at most 2048 B in 12", bestBytes, bestAllocs)
	}
}

// TestServeConnReusesScratch: one transport carries two shapes back to
// back and interleaved — toric L = 4 phenomenological on 48 lanes and
// L = 5 circuit-level on 20 — among them a session refused after the
// handshake (a closing round that is no syndrome of the code: the
// decoder fails after its slides), and between them a session of each
// shape cut mid-round on a second transport. Each shape keeps one
// scratch throughout, and every finished session commits the standalone
// stream's frames, the ones after a cut or refused session included, read
// back by one Conn whose frame buffers change shape with the sessions.
// Four transports then serve both shapes at once.
func TestServeConnReusesScratch(t *testing.T) {
	a := recordWireSession(t, 4, 48, 21, 5310)
	P := noise.Uniform(0.004)
	b := recordWire(t, toricCircuitLevel(5, 20, P), P, 0, 0, 23, 5311)
	refused := bytes.Clone(b.stream)
	refused[len(refused)-b.roundBytes()+1] ^= 1 // one lone defect in the closing round
	cut := func(w wireSession) []byte {
		open := len(w.stream) - (w.rounds+1)*w.roundBytes()
		return w.stream[:open+17*w.roundBytes()+5] // past two slides of either window
	}

	srv := New(Config{Workers: 2})
	defer srv.Shutdown()
	type step struct {
		w      *wireSession // nil: the refused session on the main transport
		cutOff []byte       // a second transport's stream, cut inside a round
	}
	steps := []step{{w: &a}, {w: &b}, {w: &b}, {w: &a}, {w: nil}, {w: &b}, {cutOff: cut(a)}, {w: &a}, {cutOff: cut(b)}, {w: &b}, {w: &a}}
	var main bytes.Buffer
	for _, st := range steps {
		switch {
		case st.cutOff != nil:
		case st.w == nil:
			main.Write(refused)
		default:
			main.Write(st.w.stream)
		}
	}
	var out bytes.Buffer
	rw := transport{&main, &out}
	replies := Dial(transport{&out, nil}) // one client reads every reply, both shapes in its buffers
	held := map[*scratch]bool{}           // holding every scratch keeps a collection from forcing a rebuild
	for i, st := range steps {
		switch {
		case st.cutOff != nil:
			if err := srv.ServeConn(transport{bytes.NewReader(st.cutOff), io.Discard}); err != io.ErrUnexpectedEOF {
				t.Fatalf("step %d, cut session: %v, want io.ErrUnexpectedEOF", i, err)
			}
		case st.w == nil:
			if err := srv.ServeConn(rw); err == nil || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("step %d, refused session: %v, want a decoder error", i, err)
			}
		default:
			if err := srv.ServeConn(rw); err != nil {
				t.Fatalf("step %d: ServeConn: %v", i, err)
			}
			res, err := replies.readFrames()
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			if !res.Finished || res.Rounds != st.w.rounds || res.Committed != st.w.rounds {
				t.Fatalf("step %d: wire result incomplete: %+v", i, res)
			}
			if !framesEqual(res.FramesX, res.FramesZ, st.w.refX, st.w.refZ) {
				t.Fatalf("step %d: wire frames differ from the standalone stream", i)
			}
		}
		if open := srv.Snapshot(); len(open) != 0 {
			t.Fatalf("step %d left %d sessions open", i, len(open))
		}
		for _, sc := range freeScratch(srv) {
			held[sc] = true
		}
	}
	if out.Len() != 0 {
		t.Fatalf("%d bytes written past the finished sessions' frames", out.Len())
	}
	if err := srv.ServeConn(rw); err != io.EOF {
		t.Fatalf("ServeConn on the drained transport: %v, want io.EOF", err)
	}
	if len(held) != 2 {
		t.Fatalf("two shapes served through %d scratches, want one each", len(held))
	}

	// Then four transports at once, two per shape, take and give back
	// scratch concurrently.
	var wg sync.WaitGroup
	for c := range 4 {
		w := [2]*wireSession{&a, &b}[c%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			var in, out bytes.Buffer
			for range 3 {
				in.Write(w.stream)
			}
			rw, replies := transport{&in, &out}, Dial(transport{&out, nil})
			for i := range 3 {
				if err := srv.ServeConn(rw); err != nil {
					t.Errorf("transport %d, session %d: %v", c, i, err)
					return
				}
				res, err := replies.readFrames()
				if err != nil || !framesEqual(res.FramesX, res.FramesZ, w.refX, w.refZ) {
					t.Errorf("transport %d, session %d: frames differ from the standalone stream (%v)", c, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestIdleScratchFreedByCollection: wire sessions over twenty shapes
// (lanes 1 to 20 of one window) leave twenty scratches on the free list,
// and once nothing else holds them a collection frees every one, its
// entry and the window: an idle shape pins no memory.
func TestIdleScratchFreedByCollection(t *testing.T) {
	const shapes = 20
	srv := New(Config{Workers: 1})
	defer srv.Shutdown()
	var win weak.Pointer[stream.Window]
	func() {
		var in, out bytes.Buffer
		for lanes := 1; lanes <= shapes; lanes++ {
			w := recordWireSession(t, 3, lanes, 7, 5320+uint64(lanes))
			in.Write(w.stream)
		}
		held := map[*scratch]bool{} // until every shape is served
		for lanes := 1; lanes <= shapes; lanes++ {
			if err := srv.ServeConn(transport{&in, &out}); err != nil {
				t.Fatalf("lanes %d: %v", lanes, err)
			}
			for _, sc := range freeScratch(srv) {
				held[sc] = true
				win = sc.key.win
			}
		}
		if len(held) != shapes {
			t.Fatalf("%d shapes served through %d scratches", shapes, len(held))
		}
	}()
	idle := func() bool {
		srv.freeMu.Lock()
		defer srv.freeMu.Unlock()
		return len(srv.free) == 0 && win.Value() == nil
	}
	for try := 0; try < 200 && !idle(); try++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if live := freeScratch(srv); len(live) != 0 {
		t.Fatalf("%d idle scratches survived the collections", len(live))
	}
	if !idle() {
		t.Fatalf("after the collections the free list keeps %d shapes and the window is alive: %v", len(srv.free), win.Value() != nil)
	}
}
