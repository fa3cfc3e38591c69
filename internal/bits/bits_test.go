package bits

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func randomVec(rng *rand.Rand, n int) Vec {
	v := NewVec(n)
	for i := 0; i < n; i++ {
		if rng.IntN(2) == 1 {
			v.Set(i, true)
		}
	}
	return v
}

func TestVecSetGetFlip(t *testing.T) {
	v := NewVec(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Get(i) {
			t.Fatalf("fresh vector has bit %d set", i)
		}
		v.Set(i, true)
		if !v.Get(i) {
			t.Fatalf("Set(%d) did not stick", i)
		}
		v.Flip(i)
		if v.Get(i) {
			t.Fatalf("Flip(%d) did not clear", i)
		}
	}
}

func TestVecString(t *testing.T) {
	v := MustFromString("0110010")
	if got := v.String(); got != "0110010" {
		t.Fatalf("round trip: got %q", got)
	}
	if v.Weight() != 3 {
		t.Fatalf("weight: got %d, want 3", v.Weight())
	}
	if got := v.Support(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 5 {
		t.Fatalf("support: got %v", got)
	}
}

func TestFromStringRejectsGarbage(t *testing.T) {
	if _, err := FromString("01x"); err == nil {
		t.Fatal("expected error for non-binary character")
	}
}

func TestXorSelfInverse(t *testing.T) {
	f := func(a, b []bool) bool {
		if len(a) > len(b) {
			a = a[:len(b)]
		} else {
			b = b[:len(a)]
		}
		va, vb := fromBools(a), fromBools(b)
		w := va.Clone()
		w.Xor(vb)
		w.Xor(vb)
		return w.Equal(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDotBilinear(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(100)
		a, b, c := randomVec(rng, n), randomVec(rng, n), randomVec(rng, n)
		bc := b.Clone()
		bc.Xor(c)
		lhs := a.Dot(bc)
		rhs := a.Dot(b) != a.Dot(c)
		if lhs != rhs {
			t.Fatalf("n=%d: dot not bilinear", n)
		}
	}
}

func TestWeightMatchesSupport(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 100; trial++ {
		v := randomVec(rng, 1+rng.IntN(200))
		if v.Weight() != len(v.Support()) {
			t.Fatalf("weight %d != |support| %d", v.Weight(), len(v.Support()))
		}
	}
}

func TestKeyDistinguishes(t *testing.T) {
	a := MustFromString("1010")
	b := MustFromString("1011")
	if a.Key() == b.Key() {
		t.Fatal("distinct vectors share a key")
	}
	if a.Key() != a.Clone().Key() {
		t.Fatal("clone has different key")
	}
}

func TestRREFIdentity(t *testing.T) {
	m := MatrixFromStrings("110", "011", "101")
	pivots := m.RREF()
	// 110+011+101 = 000, rank is 2.
	if len(pivots) != 2 {
		t.Fatalf("rank: got %d, want 2", len(pivots))
	}
}

func TestHammingParityKernel(t *testing.T) {
	// The [7,4] Hamming parity check; its kernel must have dimension 4 and
	// every kernel vector must satisfy the check.
	h := MatrixFromStrings(
		"0001111",
		"0110011",
		"1010101",
	)
	ker := h.Kernel()
	if ker.Rows() != 4 {
		t.Fatalf("kernel dim: got %d, want 4", ker.Rows())
	}
	for i := 0; i < ker.Rows(); i++ {
		if !h.MulVec(ker.Row(i)).Zero() {
			t.Fatalf("kernel row %d not annihilated", i)
		}
	}
	if ker.Rank() != 4 {
		t.Fatalf("kernel rows dependent: rank %d", ker.Rank())
	}
}

func TestSolveConsistent(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 100; trial++ {
		rows, cols := 1+rng.IntN(12), 1+rng.IntN(12)
		m := NewMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			m.SetRow(i, randomVec(rng, cols))
		}
		// Build b from a known solution so the system is consistent.
		x0 := randomVec(rng, cols)
		b := m.MulVec(x0)
		x, ok := m.Solve(b)
		if !ok {
			t.Fatalf("consistent system reported unsolvable")
		}
		if !m.MulVec(x).Equal(b) {
			t.Fatalf("solution does not satisfy system")
		}
	}
}

func TestSolveInconsistent(t *testing.T) {
	m := MatrixFromStrings("10", "10")
	b := MustFromString("10")
	if _, ok := m.Solve(b); ok {
		t.Fatal("inconsistent system reported solvable")
	}
}

func TestRankNullity(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for trial := 0; trial < 100; trial++ {
		rows, cols := 1+rng.IntN(15), 1+rng.IntN(15)
		m := NewMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			m.SetRow(i, randomVec(rng, cols))
		}
		if m.Rank()+m.Kernel().Rows() != cols {
			t.Fatalf("rank-nullity violated: rank=%d nullity=%d cols=%d",
				m.Rank(), m.Kernel().Rows(), cols)
		}
	}
}

func TestStack(t *testing.T) {
	a := MatrixFromStrings("10")
	b := MatrixFromStrings("01", "11")
	s := a.Stack(b)
	if s.Rows() != 3 || s.Row(0).String() != "10" || s.Row(1).String() != "01" || s.Row(2).String() != "11" {
		t.Fatalf("stack wrong: %q %q %q", s.Row(0), s.Row(1), s.Row(2))
	}
}

func TestWordLevelOps(t *testing.T) {
	v := NewVec(70) // deliberately not a multiple of 64: exercises tail masking
	if v.Words() != 2 {
		t.Fatalf("words %d", v.Words())
	}
	v.SetWord(0, ^uint64(0))
	v.SetWord(1, ^uint64(0))
	if v.Weight() != 70 {
		t.Fatalf("tail masking broken: weight %d", v.Weight())
	}
	if v.Word(1) != (1<<6)-1 {
		t.Fatalf("tail word %x", v.Word(1))
	}
	w := NewVec(70)
	w.Set(3, true)
	w.Set(69, true)
	v.AndNot(w)
	if v.Get(3) || v.Get(69) || v.Weight() != 68 {
		t.Fatal("AndNot broken")
	}
	v.Or(w)
	if !v.Get(3) || !v.Get(69) || v.Weight() != 70 {
		t.Fatal("Or broken")
	}
	v.XorWord(1, ^uint64(0))
	if v.Word(1) != 0 {
		t.Fatalf("XorWord broken: %x", v.Word(1))
	}
	u := NewVec(70)
	u.CopyFrom(v)
	if !u.Equal(v) {
		t.Fatal("CopyFrom broken")
	}
	if !u.Any() {
		t.Fatal("Any broken")
	}
	u.Clear()
	if u.Any() {
		t.Fatal("Clear broken")
	}
}

func TestAppendSupport(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 72))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.IntN(300)
		v := NewVec(n)
		var want []int
		for i := 0; i < n; i++ {
			if rng.IntN(4) == 0 {
				v.Set(i, true)
				want = append(want, i)
			}
		}
		got := v.AppendSupport(nil)
		if len(got) != len(want) {
			t.Fatalf("n=%d: support size %d want %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: support[%d]=%d want %d", n, i, got[i], want[i])
			}
		}
		// Appending after a prefix must preserve it.
		pre := v.AppendSupport([]int{-1})
		if pre[0] != -1 || len(pre) != len(want)+1 {
			t.Fatal("AppendSupport clobbered the destination prefix")
		}
	}
}

func TestTransposePlanes(t *testing.T) {
	rng := rand.New(rand.NewPCG(73, 74))
	for _, shape := range [][2]int{{1, 1}, {3, 70}, {64, 64}, {65, 127}, {130, 40}, {257, 129}} {
		n, m := shape[0], shape[1]
		src := NewVecs(n, m)
		for i := range src {
			for j := 0; j < m; j++ {
				if rng.IntN(2) == 1 {
					src[i].Set(j, true)
				}
			}
		}
		// A destination longer than the plane count reads zero past it,
		// whatever it held before.
		for _, pad := range []int{0, 1, 100} {
			dst := NewVecs(m, n+pad)
			for j := range dst {
				dst[j].SetAll()
			}
			TransposePlanes(dst, src)
			for j := 0; j < m; j++ {
				for i := 0; i < n+pad; i++ {
					if want := i < n && src[i].Get(j); dst[j].Get(i) != want {
						t.Fatalf("shape %dx%d pad %d: dst[%d][%d] = %v", n, m, pad, j, i, !want)
					}
				}
			}
		}
	}
}

// TestAppendPlaneSupports: scattering plane groups at ascending bases
// builds, per bit column, the list AppendSupport reads off the transpose
// of all the planes.
func TestAppendPlaneSupports(t *testing.T) {
	rng := rand.New(rand.NewPCG(75, 76))
	for _, shape := range [][2]int{{1, 1}, {3, 70}, {64, 64}, {65, 127}, {130, 100}} {
		n, m := shape[0], shape[1]
		src := NewVecs(n, m)
		for i := range src {
			for j := 0; j < m; j++ {
				if rng.IntN(8) == 0 {
					src[i].Set(j, true)
				}
			}
		}
		cols := NewVecs(m, n)
		TransposePlanes(cols, src)
		lists := make([][]int, m)
		cut := n / 3
		AppendPlaneSupports(lists, src[:cut], 0)
		AppendPlaneSupports(lists, src[cut:], cut)
		for j := range lists {
			if want := cols[j].Support(); !slices.Equal(lists[j], want) {
				t.Fatalf("shape %dx%d column %d: %v, want %v", n, m, j, lists[j], want)
			}
		}
	}
}

// TestSlabHelpersMatchPlaneForms: each slab pass equals its per-plane
// form — PackPlanes is CopyFrom per plane, XorSlabs is
// CopyFrom then Xor, AppendSlabSupports is AppendPlaneSupports — on
// random planes at lane counts around the word size (tail words
// included), with the scatter reading every run of a ring's slots, the
// ones that wrap its end split in two.
func TestSlabHelpersMatchPlaneForms(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 78))
	const slots, perSlot = 5, 7
	random := func(planes []Vec, density float64) {
		for _, p := range planes {
			p.Clear()
			for j := 0; j < p.Len(); j++ {
				if rng.Float64() < density {
					p.Set(j, true)
				}
			}
		}
	}
	for _, lanes := range []int{1, 63, 64, 65, 128, 130} {
		ring, ringW := NewSlab(slots*perSlot, lanes)
		w := ring[0].Words()
		for slot := 0; slot < slots; slot++ {
			src := NewVecs(perSlot, lanes)
			random(src, []float64{0.1, 0.01, 0, 0.3, 0.05}[slot])
			PackPlanes(ringW[slot*perSlot*w:][:perSlot*w], src, lanes)
			any, wantAny := false, false
			for c, p := range src {
				any = any || ring[slot*perSlot+c].Any()
				wantAny = wantAny || !p.Zero()
				want := NewVec(lanes)
				want.CopyFrom(p)
				if !ring[slot*perSlot+c].Equal(want) {
					t.Fatalf("lanes %d slot %d: packed plane %d differs from CopyFrom", lanes, slot, c)
				}
			}
			if any != wantAny {
				t.Fatalf("lanes %d slot %d: packed slot has a set bit = %v, Zero says %v", lanes, slot, any, wantAny)
			}
		}

		a, aw := NewSlab(perSlot, lanes)
		b, bw := NewSlab(perSlot, lanes)
		random(a, 0.3)
		random(b, 0.3)
		dst := NewVecs(perSlot, lanes)
		random(dst, 0.5) // overwritten, not accumulated
		XorSlabs(dst, aw, bw)
		for c := range dst {
			want := NewVec(lanes)
			want.CopyFrom(a[c])
			want.Xor(b[c])
			if !dst[c].Equal(want) {
				t.Fatalf("lanes %d: XorSlabs plane %d differs from CopyFrom then Xor", lanes, c)
			}
		}

		for head := 0; head < slots; head++ {
			for h := 1; h <= slots; h++ {
				want, got := make([][]int, lanes), make([][]int, lanes)
				for t := 0; t < h; t++ {
					slot := (head + t) % slots
					AppendPlaneSupports(want, ring[slot*perSlot:][:perSlot], t*perSlot)
				}
				first := min(h, slots-head)
				AppendSlabSupports(got, ringW[head*perSlot*w:][:first*perSlot*w], w, 0)
				if rest := h - first; rest > 0 {
					AppendSlabSupports(got, ringW[:rest*perSlot*w], w, first*perSlot)
				}
				for j := range want {
					if !slices.Equal(got[j], want[j]) {
						t.Fatalf("lanes %d head %d h %d column %d: %v, want %v", lanes, head, h, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// fromBools builds a vector from a bool slice.
func fromBools(b []bool) Vec {
	v := NewVec(len(b))
	for i, bit := range b {
		if bit {
			v.Set(i, true)
		}
	}
	return v
}
