package server

import (
	"sync"
	"testing"

	"ftqc/internal/noise"
)

// TestCoalescedMatchesDirect is the coalescer's determinism criterion:
// a fleet of concurrent circuit-level sessions on a coalescing server
// drains to frames bit-identical to the uncoalesced server and to
// standalone streams, across worker counts — merging submissions must
// be invisible in every committed bit.
func TestCoalescedMatchesDirect(t *testing.T) {
	const l, lanes, rounds = 4, 8, 24
	sessions := 16
	if testing.Short() {
		sessions = 6
	}
	P := noise.Uniform(0.004)
	cfg := toricCircuitLevel(l, lanes, P)
	for _, workers := range []int{1, 3} {
		type res struct {
			r   SessionResult
			err error
		}
		run := func(coalesce bool) []res {
			srv := New(Config{Workers: workers, Coalesce: coalesce})
			defer srv.Shutdown()
			out := make([]res, sessions)
			var wg sync.WaitGroup
			for i := 0; i < sessions; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					out[i].r, out[i].err = driveSession(srv, cfg, P, 0, 0, rounds, 900+uint64(i))
				}(i)
			}
			wg.Wait()
			if coalesce {
				st := srv.CoalesceStats()
				if st.Batches == 0 || st.Flushes == 0 || st.Batches < st.Flushes {
					t.Errorf("workers=%d: implausible coalesce stats %+v", workers, st)
				}
			}
			return out
		}
		direct := run(false)
		merged := run(true)
		for i := range direct {
			if direct[i].err != nil || merged[i].err != nil {
				t.Fatalf("workers=%d session %d: errs %v / %v", workers, i, direct[i].err, merged[i].err)
			}
			a, b := direct[i].r, merged[i].r
			if a.Committed != b.Committed || !a.Finished || !b.Finished {
				t.Fatalf("workers=%d session %d: coverage direct=%+v merged=%+v", workers, i, a, b)
			}
			if !framesEqual(a.FramesX, a.FramesZ, b.FramesX, b.FramesZ) {
				t.Fatalf("workers=%d session %d: coalesced frames diverge from direct", workers, i)
			}
		}
		// The direct server must not report coalescer activity.
		if st := (&Server{}).CoalesceStats(); st.Flushes != 0 {
			t.Fatalf("coalescer off should snapshot zero, got %+v", st)
		}
	}
}
