// Package threshold estimates the accuracy threshold of Preskill §5 from
// circuit-level Monte Carlo: it sweeps the physical error rate, measures
// the logical failure probability of the basic fault-tolerant rectangle,
// fits the quadratic coefficient A of p_fail = A·ε², and reports the
// pseudothreshold 1/A that seeds the concatenation flow equations.
package threshold

import (
	"fmt"
	"math"
	"sync"

	"ftqc/internal/ft"
	"ftqc/internal/noise"
)

// Point is one measured point of a failure-rate curve.
type Point struct {
	Eps     float64 // physical error rate
	Fail    float64 // logical failure probability
	StdErr  float64 // binomial standard error of Fail
	Samples int
}

// Model maps a scalar error rate to a full noise parameterization,
// selecting which locations are noisy (§6: gate-only, storage-only, or
// uniform).
type Model func(eps float64) noise.Params

// Curve measures the exRec failure probability across the given error
// rates. Points run concurrently (each ε already batches its samples
// 64-per-word internally); per-point seeds keep the result independent of
// scheduling.
func Curve(method ft.ECMethod, model Model, epsList []float64, cfg ft.Config, samples int, seed uint64) []Point {
	return sweep(epsList, func(i int, eps float64) Point {
		r := ft.ExRecCNOT(method, model(eps), cfg, samples, seed+uint64(i)*1000)
		return pointOf(eps, r.FailRate(), r.Samples)
	})
}

func pointOf(eps, p float64, samples int) Point {
	return Point{
		Eps:     eps,
		Fail:    p,
		StdErr:  math.Sqrt(p * (1 - p) / float64(samples)),
		Samples: samples,
	}
}

// sweep runs one measurement per ε concurrently and collects the points
// in input order.
func sweep(epsList []float64, measure func(i int, eps float64) Point) []Point {
	pts := make([]Point, len(epsList))
	var wg sync.WaitGroup
	for i, eps := range epsList {
		wg.Add(1)
		go func(i int, eps float64) {
			defer wg.Done()
			pts[i] = measure(i, eps)
		}(i, eps)
	}
	wg.Wait()
	return pts
}

// FitA fits p = A·ε² through the measured points by weighted least
// squares through the origin in the variable ε². Points with zero
// observed failures still contribute through their weight.
func FitA(pts []Point) float64 {
	var num, den float64
	for _, p := range pts {
		w := 1.0
		if p.StdErr > 0 {
			w = 1 / (p.StdErr * p.StdErr)
		} else if p.Samples > 0 {
			// Zero failures: weight by the Poisson bound 1/N.
			w = float64(p.Samples) * float64(p.Samples)
		}
		x := p.Eps * p.Eps
		num += w * x * p.Fail
		den += w * x * x
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Pseudothreshold returns the error rate at which encoding stops helping:
// A·ε² = ε ⟹ ε_pt = 1/A. This is the circuit-level analogue of the 1/21
// block threshold of Eq. (33).
func Pseudothreshold(a float64) float64 {
	if a <= 0 {
		return math.Inf(1)
	}
	return 1 / a
}

// Estimate bundles a fitted threshold analysis.
type Estimate struct {
	Method ft.ECMethod
	Points []Point
	A      float64
	Thresh float64
}

// Run sweeps, fits and packages a threshold estimate.
func Run(method ft.ECMethod, model Model, epsList []float64, cfg ft.Config, samples int, seed uint64) Estimate {
	pts := Curve(method, model, epsList, cfg, samples, seed)
	a := FitA(pts)
	return Estimate{Method: method, Points: pts, A: a, Thresh: Pseudothreshold(a)}
}

// Fit renders the fitted coefficient and the threshold 1/A under the
// given label. A curve that saw no failure fits A = 0, whose threshold
// is no finding but an infinity, so Fit says instead how many samples
// per point saw none.
func (e Estimate) Fit(label string) string {
	if e.A > 0 {
		return fmt.Sprintf("A=%.3g  %s=%.3g", e.A, label, e.Thresh)
	}
	n := 0
	if len(e.Points) > 0 {
		n = e.Points[0].Samples
	}
	return fmt.Sprintf("A=0  no failure observed at %d samples per point", n)
}

// String renders the estimate as the table the paper's Eqs. (34)–(35)
// summarize.
func (e Estimate) String() string {
	s := fmt.Sprintf("method=%s  %s\n", e.Method, e.Fit("pseudothreshold"))
	for _, p := range e.Points {
		s += fmt.Sprintf("  eps=%.2e  p_fail=%.3e ± %.1e  (n=%d)\n", p.Eps, p.Fail, p.StdErr, p.Samples)
	}
	return s
}
