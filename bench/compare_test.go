package main

import (
	"testing"
	"time"
)

// serveOnce runs one recorded session through a decode server's
// in-process API.
func serveOnce(t *testing.T, srv *decodeServer, p *sessionPool, rec *recordedSession) sessionResult {
	t.Helper()
	s, err := srv.Open(p.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p.spec.Rounds; r++ {
		if err := s.Submit(rec.X[r], rec.Z[r]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CloseWith(rec.closeX, rec.closeZ); err != nil {
		t.Fatal(err)
	}
	res, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFlippedFrameBitIsAFailedOp: served frames are held bit for bit to
// the standalone stream decode of the same layers, and one flipped bit
// is an ops_failed.
func TestFlippedFrameBitIsAFailedOp(t *testing.T) {
	p, err := recordPool(fleetPaced.tiny(tinyFleetModel), 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer()
	defer srv.Shutdown()
	rec := &p.sessions[0]
	res := serveOnce(t, srv, p, rec)
	if err := rec.check(res, p.spec.Rounds); err != nil {
		t.Fatalf("served frames differ from the reference: %v", err)
	}
	good := served{Op: 1, Done: 0.5, Reaction: 0.001, Fails: logicalFailures(p.model, rec.wind, res.FramesX, res.FramesZ)}
	if good.Fails != rec.refFails {
		t.Errorf("identical frames count %d logical failures, reference %d", good.Fails, rec.refFails)
	}

	res.FramesZ[5].Flip(2)
	bad := served{Op: 2, Done: 0.6, Reaction: 0.001, Err: rec.check(res, p.spec.Rounds)}
	if bad.Err == nil {
		t.Fatal("a flipped frame bit passed the comparison")
	}
	short := res
	short.Rounds--
	if rec.check(short, p.spec.Rounds) == nil {
		t.Error("a result one round short passed the comparison")
	}

	done := []served{good, bad}
	r := newReport("fleet-paced")
	p.tally(r, done, 1, 1, time.Second, 0)
	if r.Attempted != 2 || r.Failed != 1 {
		t.Errorf("ops %d, ops_failed %d; want 2, 1", r.Attempted, r.Failed)
	}

	// A session over the time-out fails too.
	slow := good
	slow.Reaction = 0.2
	r = newReport("fleet-paced")
	p.tally(r, append(done, slow), 1, 1, time.Second, 0.05)
	if r.Failed != 2 {
		t.Errorf("ops_failed %d with one slow and one wrong session, want 2", r.Failed)
	}
}
