package main

// sut.go is the benchmark's only contact with the system under test:
// every ftqc symbol the workloads, the traced loops and the kernel
// replay call is named here and nowhere else, always through the
// surface.Code-parameterised entry points. When the toric-specific twins
// are collapsed (ROADMAP item 2) this is the one file to touch.

import (
	"io"

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

type (
	vec           = bits.Vec
	sampler       = frame.Sampler
	mcResult      = stream.Result
	streamSession = stream.Session
	streamDecoder = stream.Decoder
	decodeGraph   = decoder.Graph
	decodeShot    = decoder.Shot
	decodePool    = decoder.Service
	decodeBatch   = decoder.Batch
	unionFind     = decoder.UnionFind
	decodeServer  = server.Server
	serverSession = server.Session
	sessionConfig = server.SessionConfig
	sessionResult = server.SessionResult
	sessionStats  = server.SessionStats
	wireConn      = server.Conn
)

// model is the code and noise of one workload. Circuit selects the
// circuit-level extraction model at per-location rate Eps; otherwise the
// phenomenological model at data rate P and measurement rate Q.
type model struct {
	Code    surface.Code
	Circuit bool
	Eps     float64
	P, Q    float64
}

func toricCode(l int) surface.Code   { return toric.Cached(l) }
func rotatedCode(d int) surface.Code { return surface.Rotated(d) }

// layerSource is what the benchmark needs from a syndrome source: the
// round layers, the closing perfect round, and the logical parities of
// the errors it injected.
type layerSource interface {
	NextLayers(layerX, layerZ []vec)
	CloseLayers(layerX, layerZ []vec)
	Windings(pX1, pX2, pZ1, pZ2 vec)
}

func (m model) newSource(lanes int, smp sampler) layerSource {
	if m.Circuit {
		return surface.NewCircuitSource(m.Code, noise.Uniform(m.Eps), lanes, smp)
	}
	return surface.NewLayerSource(m.Code, m.P, m.Q, lanes, smp)
}

// memory is the researcher's one-call entry point: a streaming memory
// Monte Carlo of `rounds` rounds through the default window.
func (m model) memory(rounds, samples int, seed uint64) (mcResult, error) {
	if m.Circuit {
		return stream.CodeCircuitMemory(m.Code, rounds, noise.Uniform(m.Eps), 0, 0, samples, seed)
	}
	return stream.CodeMemory(m.Code, rounds, m.P, m.Q, 0, 0, samples, seed)
}

// newStreamSession builds the standalone window and decode pool with
// exactly the window shape and weights memory derives for `rounds`.
func (m model) newStreamSession(rounds int) (*streamSession, error) {
	d := m.Code.Distance()
	w, c := stream.DefaultWindow(d)
	if m.Circuit {
		wh, wv, wd := spacetime.WeightsCircuit(noise.Uniform(m.Eps), d, w)
		return stream.NewCodeCircuitSession(m.Code, w, c, wh, wv, wd)
	}
	wh, wv := spacetime.Weights(m.P, m.Q, d, rounds)
	return stream.NewCodeSession(m.Code, w, c, wh, wv)
}

// serverConfig is the tenant's session configuration for the model.
func (m model) serverConfig(lanes int) sessionConfig {
	if m.Circuit {
		return server.CircuitLevelCode(m.Code, lanes, noise.Uniform(m.Eps))
	}
	return server.PhenomenologicalCode(m.Code, lanes, m.P, m.Q)
}

// windowShape returns the layers per window and committed per slide of
// a stream session, and the two open-window graphs.
func windowShape(s *streamSession) (w, commit int, primal, dual *decodeGraph) {
	win := s.Window()
	return win.W, win.Commit, win.Graph(), win.DualGraph()
}

func newSampler(seed, streamID uint64) sampler { return frame.NewAggregateSampler(seed, streamID) }

func forEachChunk(samples int, seed uint64, fn func(lanes int, smp sampler)) {
	frame.ForEachChunk(samples, seed, fn)
}

func newVec(n int) vec                       { return bits.NewVec(n) }
func newVecs(count, n int) []vec             { return bits.NewVecs(count, n) }
func transposePlanes(dst, src []vec)         { bits.TransposePlanes(dst, src) }
func newUnionFind(g *decodeGraph) *unionFind { return decoder.NewUnionFind(g) }
func newDecodePool() *decodePool             { return decoder.NewPool(0) }
func newDecodeBatch(n int) *decodeBatch      { return decoder.NewBatch(n) }

// newServer starts the decode server as `ftqc serve` does: default
// worker count and queue depth, blocking overflow.
func newServer() *decodeServer { return server.New(server.Config{Overflow: server.OverflowBlock}) }

func dialWire(rw io.ReadWriter) *wireConn { return server.Dial(rw) }

// standaloneSession builds the stream session a server interns for cfg:
// the reference every served frame is compared against bit for bit.
func standaloneSession(cfg sessionConfig) (*streamSession, error) {
	if cfg.WD > 0 {
		return stream.NewCodeCircuitSession(cfg.Code, cfg.Window, cfg.Commit, cfg.WH, cfg.WV, cfg.WD)
	}
	return stream.NewCodeSession(cfg.Code, cfg.Window, cfg.Commit, cfg.WH, cfg.WV)
}
