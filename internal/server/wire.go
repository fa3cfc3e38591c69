package server

import (
	"encoding/binary"
	"fmt"
	"io"

	"ftqc/internal/bits"
	"ftqc/internal/toric"
)

// Wire framing for the ingestion demo: a client streams syndrome
// layers in over any io.ReadWriter (socket, pipe, ...) and gets the
// committed Pauli frames back. One ServeConn call carries one session;
// a transport may carry any number of sessions back to back.
//
// Every message is a type byte followed by fixed-size little-endian
// payload known from the open handshake:
//
//	'O'  open    7 × uint32: L, lanes, window, commit, wh, wv, wd
//	             (the wire carries the plain L×L toric code only)
//	'R'  round   2·nc vectors of lane bits (X planes then Z planes),
//	             each vector ⌈lanes/64⌉ words
//	'F'  finish  same payload as 'R' (the perfect closing round)
//	'P'  frames  4 × uint32 (lanes, nq, rounds, committed) + 1 byte
//	             finished flag + 2·lanes vectors of nq bits (X then Z)
//
// Reads per message are bounded and never run ahead. The server takes
// 'O' in one io.ReadFull and every 'R'/'F' in two (the type byte, then
// the whole payload into a buffer the session's scratch holds) and
// decodes the planes from memory; the client takes 'P' the same way
// (header, then body). No reader here requests a byte beyond the end of
// the message it is parsing, so consecutive ServeConn calls on one
// transport each find their own 'O' — a read-ahead buffer private to
// one call would swallow the next session's handshake.
//
// Both handshakes size allocations, and both come from the other end of
// the transport, so they are checked against the limits below before
// anything is allocated; a violation is an error, never a panic. A
// worst-case open (L = 32, window 128, 1024 lanes) costs about 250 MiB
// and 0.1 s; the largest 'P' body is 512 KiB.
const (
	msgOpen   = 'O'
	msgRound  = 'R'
	msgFinish = 'F'
	msgFrames = 'P'

	maxWireL          = 32                      // lattice distance
	maxWireLanes      = 1024                    // shots per session
	maxWireWindowPerL = 4                       // window ≤ maxWireWindowPerL·L layers
	maxWireWeight     = 1024                    // each of wh, wv, wd
	maxWireQubits     = 2 * maxWireL * maxWireL // frame width of the largest code
)

// Conn is the client side of the wire protocol. It keeps its message
// buffers and the frames Finish returns across the sessions it carries.
type Conn struct {
	rw               io.ReadWriter
	open             [1 + 7*4]byte
	buf              []byte // outgoing 'R' / 'F' message
	body             []byte // incoming 'P' body
	framesX, framesZ []bits.Vec
}

// Dial wraps a transport in a protocol client.
func Dial(rw io.ReadWriter) *Conn { return &Conn{rw: rw} }

// Open sends the session handshake. The 'O' message names a code by its
// lattice size alone, so only the plain toric code can cross the wire:
// any other family or schedule is an error here, never a session the
// server would silently open on the wrong code.
func (c *Conn) Open(cfg SessionConfig) error {
	lat, ok := cfg.Code.(*toric.Lattice)
	if !ok {
		return fmt.Errorf("server: the wire protocol carries only the plain toric code")
	}
	c.open[0] = msgOpen
	for i, v := range [7]int{lat.L, cfg.Lanes, cfg.Window, cfg.Commit, cfg.WH, cfg.WV, cfg.WD} {
		binary.LittleEndian.PutUint32(c.open[1+4*i:], uint32(v))
	}
	_, err := c.rw.Write(c.open[:])
	return err
}

// Round streams one round's difference layers.
func (c *Conn) Round(layerX, layerZ []bits.Vec) error {
	return c.writeLayers(msgRound, layerX, layerZ)
}

// Finish sends the closing round and reads back the committed frames.
// The frames are the Conn's own buffers, valid until the next Finish on
// it: a caller that keeps them past that copies them.
func (c *Conn) Finish(closingX, closingZ []bits.Vec) (SessionResult, error) {
	if err := c.writeLayers(msgFinish, closingX, closingZ); err != nil {
		return SessionResult{}, err
	}
	return c.readFrames()
}

func (c *Conn) writeLayers(kind byte, layerX, layerZ []bits.Vec) error {
	n := 1
	for _, v := range layerX {
		n += v.Words() * 8
	}
	for _, v := range layerZ {
		n += v.Words() * 8
	}
	c.buf = grow(c.buf, n)
	buf := c.buf[:1]
	buf[0] = kind
	buf = appendVecs(buf, layerX)
	buf = appendVecs(buf, layerZ)
	_, err := c.rw.Write(buf)
	return err
}

// grow returns buf resized to n bytes, reallocated only when it is too
// small.
func grow(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

func appendVecs(buf []byte, vs []bits.Vec) []byte {
	for _, v := range vs {
		for i := 0; i < v.Words(); i++ {
			buf = binary.LittleEndian.AppendUint64(buf, v.Word(i))
		}
	}
	return buf
}

// decodeVecs fills vs from the front of buf and returns the rest.
func decodeVecs(buf []byte, vs []bits.Vec) []byte {
	for _, v := range vs {
		for i := 0; i < v.Words(); i++ {
			v.SetWord(i, binary.LittleEndian.Uint64(buf[8*i:]))
		}
		buf = buf[8*v.Words():]
	}
	return buf
}

// roundMsgLen is the size of an 'R' or 'F' message: the type byte and
// 2·nc planes of lane bits.
func roundMsgLen(nc, lanes int) int { return 1 + 2*nc*((lanes+63)/64)*8 }

// midMessage is the error of a read that ended inside a session: a
// clean io.EOF there still means the stream was cut short.
func midMessage(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readFrames parses the 'P' message: the header, then the whole body in
// one read once its size has passed the limits. The frames and the body
// buffer are the Conn's, rebuilt only when the frame shape changes.
func (c *Conn) readFrames() (SessionResult, error) {
	var hdr [1 + 4*4 + 1]byte
	if _, err := io.ReadFull(c.rw, hdr[:]); err != nil {
		return SessionResult{}, err
	}
	if hdr[0] != msgFrames {
		return SessionResult{}, fmt.Errorf("server: expected frames message, got %q", hdr[0])
	}
	lanes := int(binary.LittleEndian.Uint32(hdr[1:]))
	nq := int(binary.LittleEndian.Uint32(hdr[5:]))
	if lanes > maxWireLanes || nq > maxWireQubits {
		return SessionResult{}, fmt.Errorf("server: frames message of %d lanes × %d qubits exceeds the wire limits (%d × %d)", lanes, nq, maxWireLanes, maxWireQubits)
	}
	if len(c.framesX) != lanes || lanes > 0 && c.framesX[0].Len() != nq {
		c.framesX, c.framesZ = bits.NewVecs(lanes, nq), bits.NewVecs(lanes, nq)
	}
	c.body = grow(c.body, 2*lanes*((nq+63)/64)*8)
	if _, err := io.ReadFull(c.rw, c.body); err != nil {
		return SessionResult{}, midMessage(err)
	}
	decodeVecs(decodeVecs(c.body, c.framesX), c.framesZ)
	return SessionResult{
		FramesX:   c.framesX,
		FramesZ:   c.framesZ,
		Rounds:    int(binary.LittleEndian.Uint32(hdr[9:])),
		Committed: int(binary.LittleEndian.Uint32(hdr[13:])),
		Finished:  hdr[17] != 0,
	}, nil
}

// parseOpen decodes the 'O' payload, holds it to the wire limits and
// builds the toric code it names.
func parseOpen(payload []byte) (SessionConfig, error) {
	f := func(i int) int { return int(binary.LittleEndian.Uint32(payload[4*i:])) }
	l := f(0)
	cfg := SessionConfig{Lanes: f(1), Window: f(2), Commit: f(3), WH: f(4), WV: f(5), WD: f(6)}
	switch {
	case l < 2 || l > maxWireL:
		return cfg, fmt.Errorf("server: open asks for L=%d, the wire carries 2 ≤ L ≤ %d", l, maxWireL)
	case cfg.Lanes > maxWireLanes:
		return cfg, fmt.Errorf("server: open asks for %d lanes, the wire limit is %d", cfg.Lanes, maxWireLanes)
	case cfg.Window > maxWireWindowPerL*l:
		return cfg, fmt.Errorf("server: open asks for a window of %d layers, the wire limit is %d·L", cfg.Window, maxWireWindowPerL)
	case cfg.WH > maxWireWeight || cfg.WV > maxWireWeight || cfg.WD > maxWireWeight:
		return cfg, fmt.Errorf("server: open asks for weights %d/%d/%d, the wire limit is %d", cfg.WH, cfg.WV, cfg.WD, maxWireWeight)
	}
	cfg.Code = toric.Cached(l)
	return cfg, nil
}

// ServeConn runs one wire session over a transport: it reads the open
// handshake, streams rounds into a server session, and on finish
// writes the committed frames back. It returns nil once the frames are
// written, io.EOF when the peer hung up before another session began,
// and otherwise the protocol or transport error that ended the session
// (io.ErrUnexpectedEOF for a stream cut anywhere inside one); the
// session is released before any return, and its scratch goes back to
// the server's free list for the next session of its shape.
func (srv *Server) ServeConn(rw io.ReadWriter) error {
	var hdr [1 + 7*4]byte
	if _, err := io.ReadFull(rw, hdr[:]); err != nil {
		return err
	}
	if hdr[0] != msgOpen {
		return fmt.Errorf("server: expected open message, got %q", hdr[0])
	}
	cfg, err := parseOpen(hdr[1:])
	if err != nil {
		return err
	}
	s, err := srv.Open(cfg)
	if err != nil {
		return err
	}
	// Every return below comes after Wait, so the session's worker is done
	// with the scratch it gives back.
	defer srv.putScratch(s.sc)
	abort := func(err error) error {
		s.Close()
		s.Wait()
		return err
	}
	sc := s.sc
	if sc.layerX == nil {
		sc.layerX, sc.layerZ = bits.NewVecs(s.nc, s.lanes), bits.NewVecs(s.nc, s.lanes)
		sc.roundBuf = make([]byte, roundMsgLen(s.nc, s.lanes))
	}
	msg := sc.roundBuf
	for {
		if _, err := io.ReadFull(rw, msg[:1]); err != nil {
			return abort(midMessage(err))
		}
		kind := msg[0]
		if kind != msgRound && kind != msgFinish {
			return abort(fmt.Errorf("server: unexpected message %q mid-stream", kind))
		}
		if _, err := io.ReadFull(rw, msg[1:]); err != nil {
			return abort(midMessage(err))
		}
		decodeVecs(decodeVecs(msg[1:], sc.layerX), sc.layerZ)
		if kind == msgRound {
			if err := s.Submit(sc.layerX, sc.layerZ); err != nil {
				return abort(err)
			}
			continue
		}
		if err := s.CloseWith(sc.layerX, sc.layerZ); err != nil {
			return abort(err)
		}
		res, err := s.Wait()
		if err != nil {
			return err
		}
		return sc.writeFrames(rw, res)
	}
}

// writeFrames encodes the 'P' message in the scratch's buffer.
func (sc *scratch) writeFrames(w io.Writer, res SessionResult) error {
	lanes := len(res.FramesX)
	nq := 0
	if lanes > 0 {
		nq = res.FramesX[0].Len()
	}
	n := 1 + 4*4 + 1
	for _, v := range res.FramesX {
		n += v.Words() * 8
	}
	for _, v := range res.FramesZ {
		n += v.Words() * 8
	}
	buf := grow(sc.framesBuf, n)[:0]
	buf = append(buf, msgFrames)
	for _, v := range [4]int{lanes, nq, res.Rounds, res.Committed} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	fin := byte(0)
	if res.Finished {
		fin = 1
	}
	buf = append(buf, fin)
	buf = appendVecs(buf, res.FramesX)
	buf = appendVecs(buf, res.FramesZ)
	sc.framesBuf = buf
	_, err := w.Write(buf)
	return err
}
