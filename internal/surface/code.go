package surface

import (
	"fmt"

	"ftqc/internal/bits"
	"ftqc/internal/decoder"
)

// sector is one error sector of a code: the check supports, the 2D
// decoding graph, and the logical-failure detectors.
type sector struct {
	supports [][]int        // per-check data-qubit support, in CNOT order
	graph    *decoder.Graph // nc nodes, plus node nc for an open code's boundary
	dets     []bits.Vec     // failure-detector supports over data qubits (one or two)
	detSups  [][]int
}

// graphCode is the one implementation of Code: a CSS code given by its
// two sector graphs, per-check CNOT orders and failure-detector
// supports. It is immutable after construction.
type graphCode struct {
	name   string
	d      int
	nq, nc int
	open   bool
	sec    [2]sector // [0] primal (Z checks), [1] dual (X checks)
	sched  *Schedule
}

// NewCode builds a Code from its per-sector data — [0] the primal
// sector (Z checks, bit-flip chains), [1] the dual sector (X checks,
// phase-flip chains): the 2D decoding graph (detectors are nodes, edge
// q is data qubit q; an open code adds one boundary node, index
// len(orders[s]), that grounds single-reader qubits), the per-check
// CNOT orders at steps 0..3 (−1 = idle step) from which the check
// supports and the diagonal reader pairs derive, and one or two
// failure-detector supports. It panics on a violated contract: sector
// check counts that differ, a graph whose nodes or edges do not match
// the checks and qubits, a check of weight under 2, a schedule
// ReaderPairs rejects, or a detector count outside 1–2.
func NewCode(name string, d, nq int, graphs [2]*decoder.Graph, orders [2][][4]int, logicals [2][][]int) Code {
	nc := len(orders[0])
	if len(orders[1]) != nc {
		panic(fmt.Sprintf("surface: %s sector check counts differ (%d vs %d)", name, nc, len(orders[1])))
	}
	c := &graphCode{name: name, d: d, nq: nq, nc: nc, open: !graphs[0].Closed()}
	for s := range c.sec {
		g := graphs[s]
		nodes := nc
		if c.open {
			nodes++
		}
		if g.Nodes() != nodes || g.Edges() != nq || g.Closed() == c.open {
			panic(fmt.Sprintf("surface: %s sector %d graph has %d nodes and %d edges, want %d and %d", name, s, g.Nodes(), g.Edges(), nodes, nq))
		}
		if n := len(logicals[s]); n < 1 || n > 2 {
			panic(fmt.Sprintf("surface: %s sector %d has %d failure detectors, want 1 or 2", name, s, n))
		}
		sec := sector{graph: g, supports: make([][]int, nc), detSups: logicals[s]}
		for ci, ord := range orders[s] {
			for _, q := range ord {
				if q >= 0 {
					sec.supports[ci] = append(sec.supports[ci], q)
				}
			}
			if len(sec.supports[ci]) < 2 {
				panic(fmt.Sprintf("surface: %s check %d has weight %d, want 2–4", name, ci, len(sec.supports[ci])))
			}
		}
		for _, sup := range logicals[s] {
			det := bits.NewVec(nq)
			for _, q := range sup {
				det.Flip(q)
			}
			sec.dets = append(sec.dets, det)
		}
		c.sec[s] = sec
	}
	c.sched = &Schedule{
		Plaq:  orders[0],
		Star:  orders[1],
		DiagX: ReaderPairs(orders[0], nq),
		DiagZ: ReaderPairs(orders[1], nq),
	}
	return c
}

// readerGraph is the boundary-grounded sector graph of an open code:
// edge q joins the checks that read data qubit q, in check order, and
// a qubit with a single reader pairs it with the boundary node nc.
func readerGraph(name string, nq int, orders [][4]int) *decoder.Graph {
	nc := len(orders)
	ends := make([][2]int32, nq)
	readers := make([]int, nq)
	for c, ord := range orders {
		for _, q := range ord {
			if q < 0 {
				continue
			}
			if readers[q] == 2 {
				panic(fmt.Sprintf("surface: %s qubit %d has more than two readers in one sector", name, q))
			}
			ends[q][readers[q]] = int32(c)
			readers[q]++
		}
	}
	for q, n := range readers {
		switch n {
		case 0:
			panic(fmt.Sprintf("surface: %s qubit %d has no reader in one sector", name, q))
		case 1:
			ends[q][1] = int32(nc)
		}
	}
	return decoder.NewGraph(nc+1, ends, nil, []int{nc})
}

func (c *graphCode) sector(dual bool) *sector {
	if dual {
		return &c.sec[1]
	}
	return &c.sec[0]
}

func (c *graphCode) CodeName() string { return c.name }

func (c *graphCode) Distance() int { return c.d }

func (c *graphCode) Qubits() int { return c.nq }

func (c *graphCode) Checks() int { return c.nc }

func (c *graphCode) Open() bool { return c.open }

func (c *graphCode) SectorGraph(dual bool) *decoder.Graph { return c.sector(dual).graph }

func (c *graphCode) LogicalParity(dual bool, errs bits.Vec) (bool, bool) {
	dets := c.sector(dual).dets
	return errs.Dot(dets[0]), len(dets) > 1 && errs.Dot(dets[1])
}

func (c *graphCode) LogicalPlanes(dual bool, planes []bits.Vec, p1, p2 bits.Vec) {
	for i, sup := range c.sector(dual).detSups {
		p := p1
		if i == 1 {
			p = p2
		}
		for _, q := range sup {
			p.Xor(planes[q])
		}
	}
}

func (c *graphCode) CheckPlanes(dual bool, planes, checks []bits.Vec) {
	for ci, sup := range c.sector(dual).supports {
		cv := checks[ci]
		cv.CopyFrom(planes[sup[0]])
		for _, q := range sup[1:] {
			cv.Xor(planes[q])
		}
	}
}

func (c *graphCode) ExtractionSchedule() *Schedule { return c.sched }
