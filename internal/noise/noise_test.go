package noise

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestParamConstructors(t *testing.T) {
	u := Uniform(1e-3)
	if u.Gate1 != 1e-3 || u.Gate2 != 1e-3 || u.Storage != 1e-3 || u.Meas != 1e-3 || u.Prep != 1e-3 {
		t.Fatal("Uniform wrong")
	}
	g := GateOnly(1e-3)
	if g.Storage != 0 || g.Gate2 != 1e-3 {
		t.Fatal("GateOnly wrong")
	}
	s := StorageOnly(1e-3)
	if s.Gate1 != 0 || s.Storage != 1e-3 {
		t.Fatal("StorageOnly wrong")
	}
}

func TestRandomPaulisUniform(t *testing.T) {
	rng := rand.New(rand.NewPCG(151, 152))
	counts := map[PauliError]int{}
	for i := 0; i < 30000; i++ {
		counts[Random1(rng)]++
	}
	for _, e := range []PauliError{ErrX, ErrZ, ErrY} {
		f := float64(counts[e]) / 30000
		if f < 0.30 || f > 0.37 {
			t.Fatalf("Pauli %d frequency %.3f, want 1/3", e, f)
		}
	}
	if counts[ErrNone] != 0 {
		t.Fatal("Random1 returned identity")
	}
	// Random2 never returns the identity pair.
	for i := 0; i < 10000; i++ {
		a, b := Random2(rng)
		if a == ErrNone && b == ErrNone {
			t.Fatal("Random2 returned identity ⊗ identity")
		}
	}
}

func TestCoherentVsRandomDrift(t *testing.T) {
	// §6: doubling N quadruples the coherent error but only doubles the
	// random-walk error.
	theta := 0.002
	c100 := CoherentDriftError(theta, 100)
	c200 := CoherentDriftError(theta, 200)
	if r := c200 / c100; r < 3.8 || r > 4.2 {
		t.Fatalf("coherent growth ratio %.2f, want ≈4", r)
	}
	rng := rand.New(rand.NewPCG(153, 154))
	r100 := RandomWalkDriftError(theta, 100, 4000, rng)
	r200 := RandomWalkDriftError(theta, 200, 4000, rng)
	if r := r200 / r100; r < 1.6 || r > 2.5 {
		t.Fatalf("random-walk growth ratio %.2f, want ≈2", r)
	}
	// And coherent accumulation is far worse in absolute terms.
	if c200 < 3*r200 {
		t.Fatalf("coherent %.2e should far exceed random %.2e", c200, r200)
	}
}

func TestCoherentMatchesClosedForm(t *testing.T) {
	// Analytic check: N=100, θ=0.01 → sin²(0.5).
	want := math.Pow(math.Sin(0.5), 2)
	if got := CoherentDriftError(0.01, 100); math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestSystematicPenalty(t *testing.T) {
	if math.Abs(SystematicThresholdPenalty(6e-4)-3.6e-7) > 1e-20 {
		t.Fatal("penalty should square the threshold")
	}
}
