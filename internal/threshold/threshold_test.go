package threshold

import (
	"math"
	"strings"
	"testing"

	"ftqc/internal/ft"
	"ftqc/internal/noise"
)

func TestFitAExactQuadratic(t *testing.T) {
	// Synthetic points lying exactly on p = 300 ε².
	var pts []Point
	for _, e := range []float64{1e-4, 2e-4, 4e-4, 1e-3} {
		pts = append(pts, Point{Eps: e, Fail: 300 * e * e, StdErr: 1e-9, Samples: 1000000})
	}
	a := FitA(pts)
	if math.Abs(a-300)/300 > 1e-6 {
		t.Fatalf("fit A = %v, want 300", a)
	}
	if pt := Pseudothreshold(a); math.Abs(pt-1.0/300)/pt > 1e-6 {
		t.Fatalf("pseudothreshold %v", pt)
	}
}

func TestFitAIgnoresZeroDivision(t *testing.T) {
	if FitA(nil) != 0 {
		t.Fatal("empty fit should be 0")
	}
	if !math.IsInf(Pseudothreshold(0), 1) {
		t.Fatal("zero A means no measurable threshold")
	}
}

// TestAllZeroCurveReportsNoFailure: a curve that saw no failure fits
// A = 0, and its rendering says so rather than printing 1/A = +Inf as a
// threshold.
func TestAllZeroCurveReportsNoFailure(t *testing.T) {
	var pts []Point
	for _, e := range []float64{1e-4, 2e-4, 4e-4} {
		pts = append(pts, pointOf(e, 0, 10))
	}
	a := FitA(pts)
	s := Estimate{Method: ft.MethodSteane, Points: pts, A: a, Thresh: Pseudothreshold(a)}.String()
	if strings.Contains(s, "Inf") || !strings.Contains(s, "no failure observed at 10 samples per point") {
		t.Fatalf("all-zero curve rendered as:\n%s", s)
	}
}

func TestCurveMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	cfg := ft.DefaultConfig()
	pts := Curve(ft.MethodSteane, noise.Uniform, []float64{3e-4, 3e-3}, cfg, 30000, 17)
	if len(pts) != 2 {
		t.Fatal("want two points")
	}
	if pts[1].Fail <= pts[0].Fail {
		t.Fatalf("failure must grow with ε: %v vs %v", pts[0].Fail, pts[1].Fail)
	}
}

func TestRunProducesFiniteEstimate(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	est := Run(ft.MethodSteane, noise.GateOnly, []float64{1e-3}, ft.DefaultConfig(), 20000, 23)
	if est.A <= 0 || math.IsInf(est.Thresh, 0) {
		t.Fatalf("estimate not usable: %+v", est)
	}
	// The gate-only pseudothreshold should land within an order of
	// magnitude of the paper's 6e-4 (Eq. 34).
	if est.Thresh < 2e-5 || est.Thresh > 2e-2 {
		t.Fatalf("gate-only pseudothreshold %.2e implausibly far from 6e-4", est.Thresh)
	}
	if est.String() == "" {
		t.Fatal("empty report")
	}
}

func TestMemoryCurveRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	pts := memoryCurve(ft.MethodSteane, noise.Uniform, []float64{1e-3}, ft.DefaultConfig(), 5000, 29)
	if len(pts) != 1 || pts[0].Samples != 5000 {
		t.Fatalf("bad points %+v", pts)
	}
}

// memoryCurve measures the single-block recovery failure probability (the
// 1-Rec calibration of the flow equation).
func memoryCurve(method ft.ECMethod, model Model, epsList []float64, cfg ft.Config, samples int, seed uint64) []Point {
	return sweep(epsList, func(i int, eps float64) Point {
		r := ft.ECFailureRate(method, model(eps), cfg, samples, seed+uint64(i)*1000)
		return pointOf(eps, r.FailRate(), r.Samples)
	})
}
