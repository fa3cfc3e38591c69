// Package circuit provides a small quantum-circuit intermediate
// representation organized into moments (time steps of maximally parallel
// gates, matching the "maximal parallelism" assumption of Preskill §6).
// Circuits are run on the stabilizer tableau (tableau.Apply); the frame
// simulators' tests run them too.
package circuit

import "fmt"

// Kind enumerates the operations appearing in the paper's circuits.
type Kind uint8

// Supported operations. CNOT is the paper's XOR gate; PrepZ/MeasZ are
// computational-basis preparation and destructive measurement; MeasX is
// measurement in the Hadamard-rotated basis.
const (
	KindH Kind = iota
	KindS
	KindSdg
	KindX
	KindY
	KindZ
	KindCNOT
	KindCZ
	KindPrepZ
	KindMeasZ
	KindMeasX
)

// Op is a single operation. B is -1 for one-qubit operations; M is the
// classical result slot for measurements and -1 otherwise.
type Op struct {
	Kind Kind
	A, B int
	M    int
}

// Moment is a set of operations acting on disjoint qubits in one step.
type Moment struct {
	Ops []Op
}

// Circuit is a moment-ordered circuit on N qubits.
type Circuit struct {
	N       int
	Moments []*Moment
	NumMeas int

	// busyUntil[q] is the first moment index at which qubit q is free.
	busyUntil []int
}

// New returns an empty circuit on n qubits.
func New(n int) *Circuit {
	return &Circuit{N: n, busyUntil: make([]int, n)}
}

// place schedules op as early as possible (ASAP scheduling), creating new
// moments as needed, and returns the moment index used.
func (c *Circuit) place(op Op) int {
	at := c.busyUntil[op.A]
	if op.B >= 0 && c.busyUntil[op.B] > at {
		at = c.busyUntil[op.B]
	}
	for len(c.Moments) <= at {
		c.Moments = append(c.Moments, &Moment{})
	}
	c.Moments[at].Ops = append(c.Moments[at].Ops, op)
	c.busyUntil[op.A] = at + 1
	if op.B >= 0 {
		c.busyUntil[op.B] = at + 1
	}
	return at
}

func (c *Circuit) check(qs ...int) {
	for _, q := range qs {
		if q < 0 || q >= c.N {
			panic(fmt.Sprintf("circuit: qubit %d out of range [0,%d)", q, c.N))
		}
	}
}

// H appends a Hadamard gate.
func (c *Circuit) H(q int) { c.check(q); c.place(Op{Kind: KindH, A: q, B: -1, M: -1}) }

// S appends a phase gate.
func (c *Circuit) S(q int) { c.check(q); c.place(Op{Kind: KindS, A: q, B: -1, M: -1}) }

// X appends a NOT gate.
func (c *Circuit) X(q int) { c.check(q); c.place(Op{Kind: KindX, A: q, B: -1, M: -1}) }

// Z appends a phase-flip gate.
func (c *Circuit) Z(q int) { c.check(q); c.place(Op{Kind: KindZ, A: q, B: -1, M: -1}) }

// CNOT appends an XOR gate with control a, target b.
func (c *Circuit) CNOT(a, b int) {
	c.check(a, b)
	if a == b {
		panic("circuit: CNOT with equal qubits")
	}
	c.place(Op{Kind: KindCNOT, A: a, B: b, M: -1})
}

// CZ appends a controlled-Z.
func (c *Circuit) CZ(a, b int) {
	c.check(a, b)
	if a == b {
		panic("circuit: CZ with equal qubits")
	}
	c.place(Op{Kind: KindCZ, A: a, B: b, M: -1})
}

// PrepZ appends a |0⟩ preparation.
func (c *Circuit) PrepZ(q int) { c.check(q); c.place(Op{Kind: KindPrepZ, A: q, B: -1, M: -1}) }

// MeasZ appends a computational-basis measurement and returns its result
// slot.
func (c *Circuit) MeasZ(q int) int {
	c.check(q)
	m := c.NumMeas
	c.NumMeas++
	c.place(Op{Kind: KindMeasZ, A: q, B: -1, M: m})
	return m
}

// MeasX appends an X-basis measurement and returns its result slot.
func (c *Circuit) MeasX(q int) int {
	c.check(q)
	m := c.NumMeas
	c.NumMeas++
	c.place(Op{Kind: KindMeasX, A: q, B: -1, M: m})
	return m
}

// Barrier forces all subsequent operations into later moments than
// everything appended so far.
func (c *Circuit) Barrier() {
	at := 0
	for _, b := range c.busyUntil {
		if b > at {
			at = b
		}
	}
	for q := range c.busyUntil {
		c.busyUntil[q] = at
	}
}
