package main

import (
	"sync"
	"testing"
	"time"
)

// stallingFleet is a fake server that answers at once, except that one
// submit blocks for a while.
type stallingFleet struct {
	stallSlot, stallSeq, stallRound int
	stall                           time.Duration

	mu      sync.Mutex
	submits int
	opens   int
}

func (f *stallingFleet) open(int, int) error {
	f.mu.Lock()
	f.opens++
	f.mu.Unlock()
	return nil
}

func (f *stallingFleet) submit(slot, seq, round int) error {
	if slot == f.stallSlot && seq == f.stallSeq && round == f.stallRound {
		time.Sleep(f.stall)
	}
	f.mu.Lock()
	f.submits++
	f.mu.Unlock()
	return nil
}

func (f *stallingFleet) finish(int, int) (func() (int, error), error) {
	return func() (int, error) { return 0, nil }, nil
}

// TestOpenLoopChargesAStallToEverySessionDueDuringIt: the generator
// keeps the schedule when the server stalls. Every tick is still issued,
// and a session whose closing tick fell due during the stall has a
// reaction counted from that due time, not from whenever the generator
// got round to it (no coordinated omission).
func TestOpenLoopChargesAStallToEverySessionDueDuringIt(t *testing.T) {
	plan := fleetPlan{Slots: 2, Rounds: 4, Period: 2 * time.Millisecond, Ticks: 200}
	const stall = 100 * time.Millisecond
	// Slot 0's session 10 opens at tick 50; its round 2 is tick 52, due at 104 ms.
	f := &stallingFleet{stallSlot: 0, stallSeq: 10, stallRound: 2, stall: stall}
	run := runFleet(plan, f)

	stallDue := 52 * plan.Period.Seconds()
	stallEnd := stallDue + stall.Seconds()
	// Slot 0 fits 40 sessions into 200 ticks, slot 1 (two ticks behind) 39.
	if len(run.Sessions) != 79 || f.opens != 79 || f.submits != 79*plan.Rounds {
		t.Fatalf("%d sessions closed, %d opened, %d rounds submitted; want 79, 79, %d: the stall must not drop ticks",
			len(run.Sessions), f.opens, f.submits, 79*plan.Rounds)
	}
	charged := 0
	for _, s := range run.Sessions {
		if s.Err != nil {
			t.Fatalf("session %d: %v", s.Op, s.Err)
		}
		if s.Due > stallDue && s.Due < stallEnd {
			charged++
			if want := stallEnd - s.Due - 0.005; s.Reaction < want {
				t.Errorf("session %d was due at %.3f s, inside the stall [%.3f, %.3f] s, but its reaction is %.3f s < %.3f s",
					s.Op, s.Due, stallDue, stallEnd, s.Reaction, want)
			}
		}
	}
	// 50 ticks fell due during the stall; each slot closes every 5 ticks.
	if charged < 18 {
		t.Errorf("only %d sessions were due during the stall, want about 20", charged)
	}
	if late := maxOf(run.Late); late < 0.9*stall.Seconds() {
		t.Errorf("largest lateness %.3f s: the ticks behind the stall must report it", late)
	}
	// The ticks that queued up behind the stall are issued back to back,
	// so the generator is back on schedule by the end.
	if late := run.Late[len(run.Late)-1]; late > 0.05 {
		t.Errorf("last tick %.3f s late: the generator never caught up", late)
	}
}

func TestBacklogGrows(t *testing.T) {
	steady := make([]int, 100)
	rising := make([]int, 100)
	for i := range rising {
		steady[i] = 2 + i%2
		rising[i] = i / 4
	}
	if grows, f := backlogGrows(steady); grows {
		t.Errorf("steady backlog %v reported as growing", f)
	}
	if grows, f := backlogGrows(rising); !grows {
		t.Errorf("backlog %v rises in every fifth and must be reported", f)
	}
}
