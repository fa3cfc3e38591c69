package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"testing/iotest"

	"ftqc/internal/bits"
	"ftqc/internal/noise"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// wireSession is one recorded client byte stream (open, rounds, finish)
// and the frames a standalone stream decoder commits for it.
type wireSession struct {
	cfg        SessionConfig
	rounds     int
	stream     []byte
	refX, refZ []bits.Vec
}

func (w wireSession) roundBytes() int { return roundMsgLen(w.cfg.Code.Checks(), w.cfg.Lanes) }

func recordWireSession(t testing.TB, l, lanes, rounds int, seed uint64) wireSession {
	t.Helper()
	const p = 0.025
	return recordWire(t, toricPhenomenological(l, lanes, p, p), noise.Params{}, p, p, rounds, seed)
}

// recordWire records a session of any wire config: a circuit-level one
// (cfg.WD > 0) draws from P, a phenomenological one at rates p and q.
func recordWire(t testing.TB, cfg SessionConfig, P noise.Params, p, q float64, rounds int, seed uint64) wireSession {
	t.Helper()
	var buf bytes.Buffer
	conn := Dial(&buf)
	if err := conn.Open(cfg); err != nil {
		t.Fatal(err)
	}
	src := newFeed(cfg, P, p, q, seed)
	nc := cfg.Code.Checks()
	layerX := bits.NewVecs(nc, cfg.Lanes)
	layerZ := bits.NewVecs(nc, cfg.Lanes)
	for r := 0; r < rounds; r++ {
		src.NextLayers(layerX, layerZ)
		if err := conn.Round(layerX, layerZ); err != nil {
			t.Fatal(err)
		}
	}
	src.CloseLayers(layerX, layerZ)
	if err := conn.writeLayers(msgFinish, layerX, layerZ); err != nil {
		t.Fatal(err)
	}
	w := wireSession{cfg: cfg, rounds: rounds, stream: buf.Bytes()}
	w.refX, w.refZ, _ = standaloneFrames(t, cfg, P, p, q, rounds, seed, true)
	return w
}

// checkFrames parses one 'P' message from out and compares it with the
// session's standalone reference.
func (w wireSession) checkFrames(t *testing.T, out io.Reader) {
	t.Helper()
	res, err := Dial(transport{out, nil}).readFrames()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished || res.Rounds != w.rounds || res.Committed != w.rounds {
		t.Fatalf("wire result incomplete: %+v", res)
	}
	if !framesEqual(res.FramesX, res.FramesZ, w.refX, w.refZ) {
		t.Fatal("wire frames differ from standalone stream")
	}
}

type transport struct {
	io.Reader
	io.Writer
}

// countingReader counts Read calls.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(b []byte) (int, error) {
	c.reads++
	return c.r.Read(b)
}

// TestServeConnShortReads: a transport that delivers one byte per Read
// yields the same frames as whole messages do.
func TestServeConnShortReads(t *testing.T) {
	w := recordWireSession(t, 4, 48, 20, 7900)
	srv := New(Config{Workers: 2})
	defer srv.Shutdown()
	var out bytes.Buffer
	if err := srv.ServeConn(transport{iotest.OneByteReader(bytes.NewReader(w.stream)), &out}); err != nil {
		t.Fatalf("ServeConn: %v", err)
	}
	w.checkFrames(t, &out)
}

// TestServeConnBackToBack: two sessions concatenated on one transport
// are served by two consecutive calls — ServeConn never reads past the
// message it is parsing — with at most two reads per round, and the
// third call reports the hang-up as a bare io.EOF.
func TestServeConnBackToBack(t *testing.T) {
	a := recordWireSession(t, 4, 48, 20, 7900)
	b := recordWireSession(t, 3, 70, 9, 7901)
	srv := New(Config{Workers: 2})
	defer srv.Shutdown()
	in := &countingReader{r: bytes.NewReader(append(bytes.Clone(a.stream), b.stream...))}
	var out bytes.Buffer
	rw := transport{in, &out}
	for _, w := range []wireSession{a, b} {
		before := in.reads
		if err := srv.ServeConn(rw); err != nil {
			t.Fatalf("ServeConn: %v", err)
		}
		if got, limit := in.reads-before, 1+2*(w.rounds+1); got > limit {
			t.Fatalf("%d reads for the open and %d rounds, want at most %d", got, w.rounds+1, limit)
		}
		w.checkFrames(t, &out)
	}
	if err := srv.ServeConn(rw); err != io.EOF {
		t.Fatalf("ServeConn on the drained transport: %v, want io.EOF", err)
	}
}

// TestServeConnCutMidRound: a stream that ends inside a session — in a
// round's payload or between two rounds — is an unexpected EOF, and the
// session is gone from the server when ServeConn returns.
func TestServeConnCutMidRound(t *testing.T) {
	w := recordWireSession(t, 3, 8, 6, 7902)
	srv := New(Config{Workers: 1})
	defer srv.Shutdown()
	open := len(w.stream) - (w.rounds+1)*w.roundBytes()
	for _, cut := range []int{open + 2*w.roundBytes() + 17, open + 2*w.roundBytes() + 1, open + 2*w.roundBytes(), open - 5} {
		err := srv.ServeConn(transport{bytes.NewReader(w.stream[:cut]), io.Discard})
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("stream cut at byte %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
		if open := srv.Snapshot(); len(open) != 0 {
			t.Fatalf("stream cut at byte %d left %d sessions open", cut, len(open))
		}
	}
}

// TestServeConnRejectsOversized: handshake sizes beyond the wire limits
// are errors on both ends, before anything is allocated.
func TestServeConnRejectsOversized(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Shutdown()
	good := []uint32{4, 8, 8, 4, 1, 1, 0}
	for field, v := range map[int]uint32{0: 1 << 31, 1: maxWireLanes + 1, 2: 4*maxWireWindowPerL + 1, 4: 1 << 20, 6: maxWireWeight + 1} {
		fields := append([]uint32(nil), good...)
		fields[field] = v
		msg := []byte{msgOpen}
		for _, f := range fields {
			msg = binary.LittleEndian.AppendUint32(msg, f)
		}
		if err := srv.ServeConn(transport{bytes.NewReader(msg), io.Discard}); err == nil || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("open with field %d = %d: %v, want a limit error", field, v, err)
		}
	}
	for _, dims := range [][2]uint32{{1 << 30, 1 << 30}, {maxWireLanes + 1, 18}, {8, maxWireQubits + 1}} {
		msg := []byte{msgFrames}
		for _, f := range []uint32{dims[0], dims[1], 1, 1} {
			msg = binary.LittleEndian.AppendUint32(msg, f)
		}
		msg = append(msg, 1)
		if _, err := Dial(transport{bytes.NewReader(msg), nil}).readFrames(); err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("frames header %v: %v, want a limit error", dims, err)
		}
	}
}

// TestConnOpenCarriesOnlyPlainToric: the 'O' message names a code by its
// lattice size alone, so the client refuses any config whose code the
// server could not rebuild from it — before a byte is written — instead
// of letting the server open a plain toric session of the same size
// (wrong check count for rotated; for toric-hookpar, same sizes and
// silently wrong diagonals).
func TestConnOpenCarriesOnlyPlainToric(t *testing.T) {
	for name, cfg := range map[string]SessionConfig{
		"rotated":       PhenomenologicalCode(surface.Rotated(9), 8, 0.01, 0.01),
		"toric-hookpar": CircuitLevelCode(toric.HookParallel(4), 8, noise.Uniform(0.003)),
		"nil code":      {Lanes: 8, Window: 4, Commit: 2, WH: 1, WV: 1},
	} {
		var buf bytes.Buffer
		if err := Dial(&buf).Open(cfg); err == nil || buf.Len() != 0 {
			t.Errorf("%s: Open err = %v with %d bytes written, want an error and nothing sent", name, err, buf.Len())
		}
	}
}

// TestParseOpenBuildsTheToricCode: the server side of the handshake
// rejects a lattice no toric code exists for (untrusted input: an
// error, never the lattice constructor's panic) and otherwise hands
// Open the code the client named.
func TestParseOpenBuildsTheToricCode(t *testing.T) {
	open := func(l uint32) []byte {
		var msg []byte
		for _, f := range []uint32{l, 8, 4, 2, 1, 1, 0} {
			msg = binary.LittleEndian.AppendUint32(msg, f)
		}
		return msg
	}
	for _, l := range []uint32{0, 1} {
		if _, err := parseOpen(open(l)); err == nil {
			t.Errorf("open with L=%d accepted", l)
		}
		srv := New(Config{Workers: 1})
		if err := srv.ServeConn(transport{bytes.NewReader(append([]byte{msgOpen}, open(l)...)), io.Discard}); err == nil || errors.Is(err, io.EOF) {
			t.Errorf("ServeConn with L=%d: %v, want a handshake error", l, err)
		}
		srv.Shutdown()
	}
	cfg, err := parseOpen(open(2))
	if err != nil || cfg.Code != surface.Code(toric.Cached(2)) {
		t.Errorf("open with L=2: code %v, err %v, want the cached toric lattice", cfg.Code, err)
	}
}

// FuzzServeConn feeds arbitrary bytes to the server side of the wire:
// every input must end in an error or a clean finish — never a panic or
// an unbounded allocation — with no session left behind. Each input is
// served twice on one server, and the second pass, on the scratch the
// first one's sessions gave back, must write the same replies byte for
// byte.
func FuzzServeConn(f *testing.F) {
	w := recordWireSession(f, 3, 8, 6, 7903)
	open := len(w.stream) - (w.rounds+1)*w.roundBytes()
	f.Add(w.stream)                                   // a valid session
	f.Add(append(bytes.Clone(w.stream), w.stream...)) // two, back to back
	f.Add(w.stream[:open+2*w.roundBytes()+17])        // truncated round
	badKind := bytes.Clone(w.stream)
	badKind[open+w.roundBytes()] = 'X'
	f.Add(badKind)
	oversized := bytes.Clone(w.stream)
	binary.LittleEndian.PutUint32(oversized[1:], 1<<31)
	f.Add(oversized)
	tiny := bytes.Clone(w.stream)
	binary.LittleEndian.PutUint32(tiny[1:], 1) // no toric code at L=1
	f.Add(tiny)
	oddParity := bytes.Clone(w.stream) // one lone defect in the closing round: not a toric syndrome
	oddParity[len(oddParity)-w.roundBytes()+1] ^= 1
	f.Add(oddParity)
	// Two sessions of different window shape and weights on one transport:
	// the second builds its own window, closing volume and decode scratch.
	other := recordWireSession(f, 4, 8, 11, 7904)
	binary.LittleEndian.PutUint32(other.stream[1+4*4:], 3) // wh
	binary.LittleEndian.PutUint32(other.stream[1+5*4:], 2) // wv
	f.Add(append(bytes.Clone(w.stream), other.stream...))
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := New(Config{Workers: 1})
		var replies [2]bytes.Buffer
		for pass := range replies {
			rw := transport{bytes.NewReader(data), &replies[pass]}
			// Each served session consumes its open message, so the loop ends;
			// four bound what one input can make the server intern.
			for i := 0; i < 4 && srv.ServeConn(rw) == nil; i++ {
			}
			if open := srv.Snapshot(); len(open) != 0 {
				t.Fatalf("pass %d: %d sessions left open", pass, len(open))
			}
		}
		if !bytes.Equal(replies[0].Bytes(), replies[1].Bytes()) {
			t.Fatalf("the second pass replied %d bytes that differ from the first pass's %d", replies[1].Len(), replies[0].Len())
		}
		srv.Shutdown()
	})
}

// TestServeConnKeepsExplicitWindow: an 'O' naming a window and a zero
// commit opens that window with half of it committed per slide, as
// stream.Memory would, and commits the frames of that standalone stream.
func TestServeConnKeepsExplicitWindow(t *testing.T) {
	const l, lanes, rounds, seed = 4, 48, 20, 7950
	const p = 0.025
	cfg := toricPhenomenological(l, lanes, p, p)
	cfg.Window, cfg.Commit = 10, 0
	want := cfg
	want.Commit = 5
	refX, refZ, _ := standaloneFrames(t, want, noise.Params{}, p, p, rounds, seed, true)

	srv := New(Config{Workers: 2})
	defer srv.Shutdown()
	client, serverSide := net.Pipe()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ServeConn(serverSide) }()
	conn := Dial(client)
	if err := conn.Open(cfg); err != nil {
		t.Fatal(err)
	}
	src := newFeed(cfg, noise.Params{}, p, p, seed)
	layerX := bits.NewVecs(l*l, lanes)
	layerZ := bits.NewVecs(l*l, lanes)
	for r := 0; r < rounds; r++ {
		src.NextLayers(layerX, layerZ)
		if err := conn.Round(layerX, layerZ); err != nil {
			t.Fatal(err)
		}
		if r == 0 { // the server has read the round, so the session is open
			if st := srv.Snapshot(); len(st) != 1 || st[0].Window != 10 || st[0].Commit != 5 {
				t.Fatalf("window 10 commit 0 over the wire opened as %+v, want 10/5", st)
			}
		}
	}
	src.CloseLayers(layerX, layerZ)
	res, err := conn.Finish(layerX, layerZ)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("ServeConn: %v", err)
	}
	if !framesEqual(res.FramesX, res.FramesZ, refX, refZ) {
		t.Fatal("wire frames differ from a standalone 10/5 stream")
	}
}
