package ft

import (
	"math/rand/v2"
	"testing"

	"ftqc/internal/code"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/pauli"
)

// layout for five-qubit-code experiments: data 0..4, cat 5..9, ver 10.
func fiveLayout() (data, cat []int, ver int) {
	return []int{0, 1, 2, 3, 4}, []int{5, 6, 7, 8}, 10
}

func newFiveEC(cfg Config) *GenericEC {
	return NewGenericEC(code.FiveQubit(), 1, cfg)
}

func TestGenericECCorrectsAllSingleErrorsFiveQubit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChargeIdle = false
	g := newFiveEC(cfg)
	data, cat, ver := fiveLayout()
	for q := 0; q < 5; q++ {
		for _, kind := range []pauli.Single{pauli.X, pauli.Z, pauli.Y} {
			s := frame.New(11, noise.Params{}, rand.New(rand.NewPCG(301, uint64(q))))
			if kind == pauli.X || kind == pauli.Y {
				s.InjectX(data[q])
			}
			if kind == pauli.Z || kind == pauli.Y {
				s.InjectZ(data[q])
			}
			g.Recover(s, data, cat, ver)
			if g.IdealDecodeGeneric(s, data) {
				t.Fatalf("[[5,1,3]] generic EC failed on %v@%d", kind, q)
			}
			// The correction must be exact up to stabilizer.
			x, z := s.FrameOn(data)
			res := pauli.NewIdentity(5)
			res.XBits.Xor(x)
			res.ZBits.Xor(z)
			if !g.Code.Syndrome(res).Zero() {
				t.Fatalf("residue detectable after recovery: %v", res)
			}
		}
	}
}

func TestGenericECCorrectsSteaneToo(t *testing.T) {
	// The same gadget drives Steane's code through its generic stabilizer
	// presentation (weight-4 generators, 4-bit cats).
	cfg := DefaultConfig()
	cfg.ChargeIdle = false
	g := NewGenericEC(Code().Code, 1, cfg)
	data := []int{0, 1, 2, 3, 4, 5, 6}
	cat := []int{7, 8, 9, 10}
	ver := 11
	for q := 0; q < 7; q++ {
		s := frame.New(12, noise.Params{}, rand.New(rand.NewPCG(302, uint64(q))))
		s.InjectX(data[q])
		s.InjectZ(data[q])
		g.Recover(s, data, cat, ver)
		if g.IdealDecodeGeneric(s, data) {
			t.Fatalf("generic EC on Steane failed for Y@%d", q)
		}
	}
}

// TestGenericECFaultTolerantFiveQubit is the §4.2 claim made concrete:
// universal fault-tolerant machinery works for ANY stabilizer code. Every
// single fault at every location of the [[5,1,3]] recovery, followed by a
// clean recovery, must leave no logical error.
func TestGenericECFaultTolerantFiveQubit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChargeIdle = false
	g := newFiveEC(cfg)
	data, cat, ver := fiveLayout()
	total := func() int {
		s := frame.New(11, noise.Params{}, rand.New(rand.NewPCG(303, 304)))
		g.Recover(s, data, cat, ver)
		return s.LocationCount
	}()
	if total < 40 {
		t.Fatalf("suspiciously few locations: %d", total)
	}
	for loc := 0; loc < total; loc++ {
		for fault := 1; fault < 16; fault++ {
			s := frame.New(11, noise.Params{}, rand.New(rand.NewPCG(305, uint64(loc))))
			s.Trigger = loc
			applied := false
			s.TriggerFault = func(s *frame.Sim, qubits []int) {
				f := fault
				for _, q := range qubits {
					if f&1 != 0 {
						s.InjectX(q)
					}
					if f&2 != 0 {
						s.InjectZ(q)
					}
					f >>= 2
				}
				applied = f == 0
			}
			g.Recover(s, data, cat, ver)
			if !applied {
				continue
			}
			s.Trigger = -1
			g.Recover(s, data, cat, ver)
			if g.IdealDecodeGeneric(s, data) {
				t.Fatalf("[[5,1,3]]: single fault %d at location %d/%d caused a logical error",
					fault, loc, total)
			}
		}
	}
}

func TestGenericECScalesQuadratically(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo scaling test")
	}
	cfg := DefaultConfig()
	g := newFiveEC(cfg)
	data, cat, ver := fiveLayout()
	fail := func(eps float64, samples int, seed uint64) float64 {
		rng := rand.New(rand.NewPCG(seed, 306))
		bad := 0
		for i := 0; i < samples; i++ {
			s := frame.New(11, noise.Uniform(eps), rng)
			g.Recover(s, data, cat, ver)
			s.P = noise.Params{}
			g.Recover(s, data, cat, ver)
			if g.IdealDecodeGeneric(s, data) {
				bad++
			}
		}
		return float64(bad) / float64(samples)
	}
	lo := fail(2e-4, 40000, 1)
	hi := fail(8e-4, 40000, 2)
	if lo == 0 {
		lo = 1.0 / 40000
	}
	if hi/lo < 5 {
		t.Fatalf("five-qubit EC failure not quadratic: p(8e-4)=%.2e p(2e-4)=%.2e", hi, lo)
	}
}

func TestCatWires(t *testing.T) {
	g := newFiveEC(DefaultConfig())
	if g.CatWires() != 5 {
		t.Fatalf("five-qubit generators have weight 4, want 5 wires, got %d", g.CatWires())
	}
}

// CatWires returns how many ancilla wires the gadget needs: the widest
// generator plus one verification qubit.
func (g *GenericEC) CatWires() int {
	w := 0
	for _, gen := range g.Code.Generators {
		if gw := gen.Weight(); gw > w {
			w = gw
		}
	}
	return w + 1
}
