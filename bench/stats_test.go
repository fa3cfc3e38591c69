package main

import (
	"math"
	"testing"
)

// TestPercentileIsAnOrderStatistic: the percentile is one of the
// samples (nearest rank, no interpolation), and a percentile with fewer
// than ten samples beyond it is refused rather than reported.
func TestPercentileIsAnOrderStatistic(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..1000, already sorted
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {75, 750}, {90, 900}, {99, 990}, {1, 10}} {
		got, err := percentile(xs, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..1000 = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	if _, err := percentile(xs, 99.5); err == nil {
		t.Error("p99.5 of 1000 samples has 5 beyond it and must be refused")
	}
	if _, err := percentile(xs[:999], 99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(xs[:39], 75); err == nil {
		t.Error("p75 of 39 samples has 9 beyond it and must be refused")
	}
	if got, err := percentile(xs[:44], 75); err != nil || got != 33 {
		t.Errorf("p75 of 1..44 = %v, %v; want 33", got, err)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of nothing must be refused")
	}
	// A low percentile needs no samples beyond it.
	if got, err := percentile(xs[:5], 20); err != nil || got != 1 {
		t.Errorf("p20 of 1..5 = %v, %v; want 1", got, err)
	}
}

func TestSegmentRates(t *testing.T) {
	// Ten units of work 2, one finishing every second: a rate of 2/s in
	// every one of five segments.
	var done []float64
	for i := 1; i <= 10; i++ {
		done = append(done, float64(i)-0.5)
	}
	for k, r := range segmentRates(done, 2, 10, 5) {
		if math.Abs(r-2) > 1e-12 {
			t.Errorf("segment %d rate %v, want 2", k, r)
		}
	}
}
