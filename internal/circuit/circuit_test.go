package circuit

import "testing"

func TestASAPScheduling(t *testing.T) {
	c := New(3)
	c.H(0)
	c.H(1) // parallel with H(0)
	c.CNOT(0, 1)
	c.H(2) // fits in moment 0
	if c.Depth() != 2 {
		t.Fatalf("depth: got %d, want 2", c.Depth())
	}
	if len(c.Moments[0].Ops) != 3 {
		t.Fatalf("moment 0 should hold 3 ops, got %d", len(c.Moments[0].Ops))
	}
}

func TestBarrier(t *testing.T) {
	c := New(2)
	c.H(0)
	c.Barrier()
	c.H(1)
	if c.Depth() != 2 {
		t.Fatalf("barrier ignored: depth %d", c.Depth())
	}
}

func TestMeasurementSlots(t *testing.T) {
	c := New(2)
	m0 := c.MeasZ(0)
	m1 := c.MeasX(1)
	if m0 != 0 || m1 != 1 || c.NumMeas != 2 {
		t.Fatalf("slots %d %d count %d", m0, m1, c.NumMeas)
	}
}

func TestIdleCounting(t *testing.T) {
	// Qubit 1 idles for one moment between its uses.
	c := New(2)
	c.H(1)
	c.H(0)
	c.H(0)
	c.Barrier()
	c.H(1)
	if c.Depth() != 3 {
		t.Fatalf("depth: got %d, want 3", c.Depth())
	}
	for _, op := range c.Moments[1].Ops {
		if op.A == 1 {
			t.Fatalf("qubit 1 acts in moment 1, want it idle: %+v", op)
		}
	}
}

func TestPanicsOnBadQubit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range qubit")
		}
	}()
	c := New(2)
	c.H(5)
}

func TestPanicsOnSelfCNOT(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on CNOT(q,q)")
		}
	}()
	c := New(2)
	c.CNOT(1, 1)
}

// Depth returns the number of moments.
func (c *Circuit) Depth() int { return len(c.Moments) }
