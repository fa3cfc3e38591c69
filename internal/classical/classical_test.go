package classical

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"ftqc/internal/bits"
)

func TestHammingParameters(t *testing.T) {
	c := Hamming743()
	if c.N != 7 || c.K != 4 {
		t.Fatalf("got [%d,%d], want [7,4]", c.N, c.K)
	}
	if d := c.MinDistance(); d != 3 {
		t.Fatalf("distance: got %d, want 3", d)
	}
	if len(c.Codewords()) != 16 {
		t.Fatalf("want 16 codewords")
	}
}

func TestHammingCorrectsAllSingleErrors(t *testing.T) {
	c := Hamming743()
	for _, w := range c.Codewords() {
		for i := 0; i < 7; i++ {
			corrupted := w.Clone()
			corrupted.Flip(i)
			if got := c.Correct(corrupted); !got.Equal(w) {
				t.Fatalf("failed to correct bit %d of %v", i, w)
			}
		}
	}
}

func TestHammingSyndromeNamesPosition(t *testing.T) {
	// Preskill Eq. (3): H(v+e_i) = He_i = column i, which spells i+1 in
	// binary for the Eq. (1) check matrix.
	c := Hamming743()
	w := c.Codewords()[5]
	for i := 0; i < 7; i++ {
		corrupted := w.Clone()
		corrupted.Flip(i)
		if got := hammingErrorPosition(c.Syndrome(corrupted)); got != i {
			t.Fatalf("syndrome position: got %d, want %d", got, i)
		}
	}
	if got := hammingErrorPosition(c.Syndrome(w)); got != -1 {
		t.Fatalf("trivial syndrome should map to -1, got %d", got)
	}
}

func TestHammingDoubleErrorMisdecodesToCodeword(t *testing.T) {
	// Two bit flips defeat the Hamming code, but correction still lands on
	// some codeword (the wrong one) — the mechanism behind Preskill
	// Eq. (12).
	c := Hamming743()
	w := c.Codewords()[3]
	corrupted := w.Clone()
	corrupted.Flip(1)
	corrupted.Flip(4)
	got := c.Correct(corrupted)
	if !c.IsCodeword(got) {
		t.Fatal("correction did not return to the code space")
	}
	if got.Equal(w) {
		t.Fatal("double error unexpectedly corrected")
	}
}

func TestHammingEvenSubcodeClosedUnderComplement(t *testing.T) {
	// Used by Steane's code: odd codewords are the complement of even ones.
	c := Hamming743()
	ones := bits.MustFromString("1111111")
	if !c.IsCodeword(ones) {
		t.Fatal("all-ones must be a Hamming codeword")
	}
	for _, w := range c.Codewords() {
		comp := w.Clone()
		comp.Xor(ones)
		if !c.IsCodeword(comp) {
			t.Fatal("complement of codeword is not a codeword")
		}
		if (w.Weight()+comp.Weight())%2 != 1 {
			t.Fatal("complement must flip weight parity")
		}
	}
	// Count: 8 even, 8 odd.
	even := 0
	for _, w := range c.Codewords() {
		if w.Weight()%2 == 0 {
			even++
		}
	}
	if even != 8 {
		t.Fatalf("even-weight codewords: got %d, want 8", even)
	}
}

func TestHammingWeightsMod4(t *testing.T) {
	// §4.1: even Hamming codewords have weight ≡ 0 (mod 4), odd ones
	// weight ≡ 3 (mod 4). This is why the phase gate P is implemented
	// bitwise as P^{-1}.
	c := Hamming743()
	for _, w := range c.Codewords() {
		wt := w.Weight()
		if wt%2 == 0 && wt%4 != 0 {
			t.Fatalf("even codeword with weight %d ≢ 0 mod 4", wt)
		}
		if wt%2 == 1 && wt%4 != 3 {
			t.Fatalf("odd codeword with weight %d ≢ 3 mod 4", wt)
		}
	}
}

func TestRepetitionCode(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		c := Repetition(n)
		if c.K != 1 {
			t.Fatalf("repetition K: got %d", c.K)
		}
		if d := c.MinDistance(); d != n {
			t.Fatalf("repetition distance: got %d want %d", d, n)
		}
		// Corrects up to (n-1)/2 flips by majority.
		msg := bits.MustFromString("1")
		w := c.Encode(msg)
		corrupted := w.Clone()
		for i := 0; i < (n-1)/2; i++ {
			corrupted.Flip(i)
		}
		if !c.Correct(corrupted).Equal(w) {
			t.Fatalf("repetition[%d] failed to correct %d flips", n, (n-1)/2)
		}
	}
}

func TestEncodeLinear(t *testing.T) {
	c := Hamming743()
	rng := rand.New(rand.NewPCG(21, 22))
	for trial := 0; trial < 50; trial++ {
		a, b := bits.NewVec(4), bits.NewVec(4)
		for i := 0; i < 4; i++ {
			a.Set(i, rng.IntN(2) == 1)
			b.Set(i, rng.IntN(2) == 1)
		}
		sum := a.Clone()
		sum.Xor(b)
		enc := c.Encode(a)
		enc.Xor(c.Encode(b))
		if !c.Encode(sum).Equal(enc) {
			t.Fatal("encoding is not linear")
		}
	}
}

func TestDecodeUnknownSyndromeReported(t *testing.T) {
	// For the [3,1] repetition code every syndrome is reachable by weight
	// ≤1 errors, so DecodeError must always succeed.
	c := Repetition(3)
	for s := 0; s < 4; s++ {
		syn := bits.NewVec(2)
		for i := 0; i < 2; i++ {
			if s>>uint(i)&1 == 1 {
				syn.Set(i, true)
			}
		}
		if _, ok := c.DecodeError(syn); !ok {
			t.Fatalf("syndrome %v unreachable", syn)
		}
	}
}

func TestNewRejectsDependentRows(t *testing.T) {
	h := bits.MatrixFromStrings("110", "110")
	if _, err := New("bad", h); err == nil {
		t.Fatal("expected error for dependent parity rows")
	}
}

// hammingErrorPosition converts a Hamming syndrome to the (0-based) flipped
// bit position, or -1 for the trivial syndrome. With the Eq. (1) check
// matrix the syndrome bits spell the 1-based position in binary,
// most-significant bit first.
func hammingErrorPosition(syndrome bits.Vec) int {
	if syndrome.Len() != 3 {
		panic("classical: Hamming syndrome must have 3 bits")
	}
	pos := 0
	for i := 0; i < 3; i++ {
		pos <<= 1
		if syndrome.Get(i) {
			pos |= 1
		}
	}
	return pos - 1
}

// Encode maps a k-bit message to an n-bit codeword (message · G).
func (c *Code) Encode(msg bits.Vec) bits.Vec {
	if msg.Len() != c.K {
		panic("classical: message length mismatch")
	}
	out := bits.NewVec(c.N)
	for i := 0; i < c.K; i++ {
		if msg.Get(i) {
			out.Xor(c.G.Row(i))
		}
	}
	return out
}

// IsCodeword reports whether the word satisfies every parity check.
func (c *Code) IsCodeword(word bits.Vec) bool { return c.Syndrome(word).Zero() }

// MinDistance computes the code's minimum distance by brute force over
// messages. Exponential in K; fine for the small codes used here.
func (c *Code) MinDistance() int {
	best := c.N + 1
	for m := 1; m < 1<<uint(c.K); m++ {
		msg := bits.NewVec(c.K)
		for i := 0; i < c.K; i++ {
			if m>>uint(i)&1 == 1 {
				msg.Set(i, true)
			}
		}
		if w := c.Encode(msg).Weight(); w < best {
			best = w
		}
	}
	return best
}

// Codewords enumerates all 2^K codewords. Exponential in K.
func (c *Code) Codewords() []bits.Vec {
	words := make([]bits.Vec, 0, 1<<uint(c.K))
	for m := 0; m < 1<<uint(c.K); m++ {
		msg := bits.NewVec(c.K)
		for i := 0; i < c.K; i++ {
			if m>>uint(i)&1 == 1 {
				msg.Set(i, true)
			}
		}
		words = append(words, c.Encode(msg))
	}
	return words
}

// Repetition returns the [n,1,n] repetition code.
func Repetition(n int) *Code {
	if n < 2 {
		panic("classical: repetition length must be at least 2")
	}
	h := bits.NewMatrix(n-1, n)
	for i := 0; i < n-1; i++ {
		h.Set(i, i, true)
		h.Set(i, i+1, true)
	}
	return MustNew(fmt.Sprintf("Repetition[%d,1,%d]", n, n), h)
}
