// Package server is the real-time multi-tenant decode service: one
// long-lived process-wide worker fleet (decoder.NewPool) multiplexing
// any number of concurrent logical-qubit sessions, each a streaming
// window pipeline (stream.Session) with its own detector graph —
// phenomenological or circuit-level. It is the deployment shape the
// paper's program requires: classical decoding that keeps pace with
// syndrome extraction for many logical qubits at once, with bounded
// memory and explicit flow control.
//
// # Scheduling contract
//
// All sessions share one decoder.Service pool. Windows come from the
// stream package's process-wide table (stream.InternWindow), keyed by
// shape (code, L, W, commit, weights), so two sessions with the same
// configuration — and any stream.Memory call of that shape — share
// graph structure, closing volumes and per-graph decode scratch. A
// shape with an open session is never rebuilt; an idle one is freed by
// the collector, so tenants cycling through shapes cannot grow the
// process. Open fills in a window by stream.WindowShape, the rule
// stream.Memory uses: an explicit window is the one decoded, a zero
// commit is half of it, and a negative size is an error. Every window decode is submitted as an independent batch;
// the pool's determinism contract (see internal/decoder) guarantees
// each batch's output is a pure function of (graph, shots), so a
// session's committed frames never depend on the worker count, on
// GOMAXPROCS, or on how its batches interleave with other sessions' —
// the server-level extension of the repo-wide determinism discipline,
// asserted by the equivalence tests against standalone stream runs.
//
// # Backpressure contract
//
// Each session owns a bounded ingest queue of Config.QueueDepth rounds
// with layer buffers from its scratch (steady-state ingest allocates
// nothing). Config.Overflow picks the policy when a producer outruns
// the decode: OverflowBlock stalls Submit until a slot frees — the
// lossless default, matching difference-syndrome semantics where a
// dropped round would corrupt every later layer — while OverflowReject
// fails fast with ErrBacklog and counts the overflow, for producers
// that prefer to shed load themselves. Closing is graceful at both
// scopes: Session.CloseWith finishes the stream with a closing round
// and delivers full frames, Session.Close flushes the queue and
// delivers the committed prefix, and Server.Shutdown drains every
// session before releasing the workers, so committed frames are never
// lost to a shutdown.
//
// # Session lifecycle and scratch
//
// A session works in a scratch: its stream.Decoder, its depth+2 queue
// buffers (the closing round travels in one of them), its commit-times
// ring and, once ServeConn has served it, the wire's decode planes and
// message buffers. Open takes a scratch of the session's shape (window
// and lanes) from the server's free list, reset by
// stream.Decoder.Reset, or builds one. What happens at the end depends
// on who reads the frames:
//
//   - ServeConn writes the 'P' frames out and then gives the scratch
//     back — also when the stream was cut, refused or failed, always
//     after Wait, so the session's worker is done with it. The next
//     session of that shape decodes in it as in a fresh one, and a warm
//     wire session allocates only its handle, channels and goroutine.
//   - An in-process session (Open, Submit, CloseWith, Wait) keeps its
//     scratch: Wait's frames are live views of the decoder, valid for as
//     long as the caller holds them, so nothing gives it back.
//
// The free list holds each scratch through a weak pointer, the rule of
// stream's window table and drain list: an idle shape's scratch is
// freed by the next collection and its entry dropped by a cleanup, so
// a shape no tenant uses costs nothing and a tenant cycling through
// shapes pins nothing. On the client side a Conn keeps its buffers and
// its frames across the sessions it carries; Finish's frames are valid
// until the next Finish on that Conn.
//
// # Observability
//
// Each session tracks rounds ingested/committed, slide and overflow
// counters, observed defect density, and a commit-latency histogram
// (enqueue to commit, power-of-two buckets); Server.Snapshot returns
// the per-session stats without disturbing the pipelines. A session
// keeps the window it was opened with for its whole life.
//
// # Wire
//
// Dial/ServeConn frame the same session over any io.ReadWriter. The
// peer is untrusted: handshake sizes are held to fixed limits before
// anything is allocated, a malformed or cut stream ends in an error
// with the session released, and layers that are not a syndrome of the
// code surface as the session's error rather than a decoder panic
// (FuzzServeConn). ServeConn reads each message whole and never past
// its end, so one transport carries sessions back to back; see wire.go
// for the message layout and the limits.
package server
