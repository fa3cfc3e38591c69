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
// with preallocated layer buffers (steady-state ingest allocates
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
