package server

// Multi-tenant decoding for the open-boundary families: sessions
// parameterized by a surface.Code share windows per (family, shape).
// That they commit a standalone stream's frames is internal/oracle's.

import (
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/spacetime"
	"ftqc/internal/surface"
)

// newCodeFeed builds the code-aware layer feed matching a code session
// config, deterministic per (cfg, seed).
func newCodeFeed(cfg SessionConfig, P noise.Params, p, q float64, seed uint64) spacetime.LayerFeed {
	smp := frame.NewAggregateSampler(seed, 9)
	if cfg.WD > 0 {
		return surface.NewCircuitSource(cfg.Code, P, cfg.Lanes, smp)
	}
	return surface.NewLayerSource(cfg.Code, p, q, cfg.Lanes, smp)
}

func driveCodeSession(t *testing.T, srv *Server, cfg SessionConfig, P noise.Params, p, q float64, rounds int, seed uint64) (SessionResult, SessionStats) {
	t.Helper()
	s, err := srv.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := newCodeFeed(cfg, P, p, q, seed)
	nc := cfg.Code.Checks()
	layerX := bits.NewVecs(nc, cfg.Lanes)
	layerZ := bits.NewVecs(nc, cfg.Lanes)
	for r := 0; r < rounds; r++ {
		src.NextLayers(layerX, layerZ)
		if err := s.Submit(layerX, layerZ); err != nil {
			t.Fatal(err)
		}
	}
	src.CloseLayers(layerX, layerZ)
	if err := s.CloseWith(layerX, layerZ); err != nil {
		t.Fatal(err)
	}
	res, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return res, s.Stats()
}

func TestServerCodeSessions(t *testing.T) {
	const lanes, rounds = 48, 11
	srv := New(Config{Workers: 2})
	defer srv.Shutdown()
	P := noise.Uniform(0.004)
	configs := []SessionConfig{
		PhenomenologicalCode(surface.Rotated(3), lanes, 0.02, 0.01),
		CircuitLevelCode(surface.Planar(3), lanes, P),
		CircuitLevelCode(surface.Planar(3), lanes, P), // shares the window of the previous session
	}
	for i, cfg := range configs {
		res, stats := driveCodeSession(t, srv, cfg, P, 0.02, 0.01, rounds, 31+uint64(i%2)*7)
		if stats.Code != cfg.Code.CodeName() {
			t.Fatalf("session %d: stats report family %q, want %q", i, stats.Code, cfg.Code.CodeName())
		}
		if res.Committed != rounds {
			t.Fatalf("session %d: committed %d of %d rounds", i, res.Committed, rounds)
		}
	}
}

// TestSnapshotIdle pins Snapshot's behaviour on servers with nothing
// to report: a fresh server and a drained one both return an empty,
// non-nil-safe listing, and an open session appears with its family.
func TestSnapshotIdle(t *testing.T) {
	srv := New(Config{})
	defer srv.Shutdown()
	if snap := srv.Snapshot(); len(snap) != 0 {
		t.Fatalf("fresh server snapshot lists %d sessions", len(snap))
	}
	cfg := PhenomenologicalCode(surface.Planar(3), 8, 0.01, 0.01)
	s, err := srv.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := srv.Snapshot()
	if len(snap) != 1 || snap[0].Code != "planar" || snap[0].Rounds != 0 {
		t.Fatalf("idle open session snapshot = %+v", snap)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if snap := srv.Snapshot(); len(snap) != 0 {
		t.Fatalf("drained server snapshot lists %d sessions", len(snap))
	}
}
