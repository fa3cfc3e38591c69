package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// pace.go is the open-loop load generator: one goroutine ticking a
// fleet of sessions in lockstep on a fixed schedule. The schedule never
// slows when the server does. A tick that cannot start on time starts
// as soon as it can, the ticks behind it queue up, and every session's
// reaction is taken from the time its closing tick was DUE, so a stall
// is charged to every session that was due during it (no coordinated
// omission).

// fleetPlan is the schedule. Slot s starts at tick s*stagger and then
// cycles: Rounds ticks submitting one round each, one tick submitting
// the closing round, reopening on the next.
type fleetPlan struct {
	Slots, Rounds int
	Period        time.Duration
	Ticks         int
}

func (p fleetPlan) stagger() int { return (p.Rounds + 1) / p.Slots }

// fleetOps is the system the generator drives. The generator goroutine
// calls open, submit and finish; the function finish returns is called
// on a goroutine of its own and blocks until the session's result is
// back (and checks it).
type fleetOps interface {
	open(slot, seq int) error
	submit(slot, seq, round int) error
	finish(slot, seq int) (wait func() (fails int, err error), err error)
}

// fleetRun is what the generator observed.
type fleetRun struct {
	Sessions []served
	Late     []float64 // per tick: start minus due time, seconds
	Pending  []int     // per tick: sessions closed whose result is not back yet, plus ticks behind schedule
	Wall     float64
}

// runFleet plays the plan against ops and returns once every session it
// closed has reported back.
func runFleet(plan fleetPlan, ops fleetOps) fleetRun {
	run := fleetRun{Late: make([]float64, plan.Ticks), Pending: make([]int, plan.Ticks)}
	cycle := plan.Rounds + 1
	broken := make([]error, plan.Slots) // the current session of a slot failed
	var pending atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < plan.Ticks; i++ {
		due := time.Duration(i) * plan.Period
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(start) - due
		run.Late[i] = late.Seconds()
		run.Pending[i] = int(pending.Load()) + int(late/plan.Period)
		for slot := 0; slot < plan.Slots; slot++ {
			j := i - slot*plan.stagger()
			if j < 0 {
				continue
			}
			seq, c := j/cycle, j%cycle
			if i-c+cycle > plan.Ticks {
				continue // a session that could not close before the last tick never opens
			}
			if c == 0 {
				broken[slot] = ops.open(slot, seq)
			}
			if broken[slot] != nil {
				if c == plan.Rounds {
					mu.Lock()
					run.Sessions = append(run.Sessions, served{Op: int64(slot)<<32 | int64(seq), Err: broken[slot]})
					mu.Unlock()
				}
				continue
			}
			if c < plan.Rounds {
				broken[slot] = ops.submit(slot, seq, c)
				continue
			}
			wait, err := ops.finish(slot, seq)
			sv := served{Op: int64(slot)<<32 | int64(seq), Due: due.Seconds(), Closed: time.Since(start).Seconds(), Err: err}
			if err != nil {
				mu.Lock()
				run.Sessions = append(run.Sessions, sv)
				mu.Unlock()
				continue
			}
			pending.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				sv.Fails, sv.Err = wait()
				sv.Done = time.Since(start).Seconds()
				sv.Reaction = sv.Done - sv.Due
				pending.Add(-1)
				mu.Lock()
				run.Sessions = append(run.Sessions, sv)
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	run.Wall = time.Since(start).Seconds()
	return run
}

// backlogGrows reports whether the mean number of sessions waiting for
// their result rose from each fifth of the run to the next and ended
// clearly above where it started: the sign of a rate the server cannot
// sustain.
func backlogGrows(pending []int) (bool, [5]float64) {
	var fifths [5]float64
	n := len(pending) / 5
	if n == 0 {
		return false, fifths
	}
	for k := range fifths {
		for _, p := range pending[k*n : (k+1)*n] {
			fifths[k] += float64(p)
		}
		fifths[k] /= float64(n)
	}
	for k := 1; k < 5; k++ {
		if fifths[k] <= fifths[k-1] {
			return false, fifths
		}
	}
	return fifths[4] > 2*fifths[0]+1, fifths
}
