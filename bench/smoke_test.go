package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesTheProgram: BENCHMARK.json names exactly the
// workloads and metrics the program emits, within the contract's limits.
func TestContractMatchesTheProgram(t *testing.T) {
	c := readContract(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(c.Workloads) < 2 || len(c.Workloads) > 8 || len(c.EndToEnd) < 1 || len(c.EndToEnd) > 16 || len(c.PerLayer) < 1 || len(c.PerLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end and %d per-layer metrics: outside the limits 2-8, 1-16, 1-128",
			len(c.Workloads), len(c.EndToEnd), len(c.PerLayer))
	}
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", c.RunSeconds, defaultSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(c.Workloads), len(workloads))
	}
	seen := make(map[string]bool)
	unique := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for i, w := range c.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) in the program", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	match := func(kind string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, m := range got {
			unique(m.Name)
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unit)
			}
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in the program", kind, i, m, d)
			}
			if bounded && (m.Bound == nil || *m.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the program, must be in (0, 0.25]", m.Name, m.Bound, d.Bound)
			}
			if !bounded && m.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	match("end-to-end", c.EndToEnd, endToEnd, true)
	match("per-layer", c.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("no setup_s among the end-to-end metrics")
	}
}

// TestEveryWorkloadSmoke runs every workload at a tiny size, untraced
// and traced: every metric BENCHMARK.json names comes out finite, every
// output check passes, and no operation fails.
func TestEveryWorkloadSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []bool{false, true} {
			cfg := runConfig{Seed: 7, Seconds: 0.5, Trace: trace, Tiny: true}
			if trace {
				cfg.OutDir = t.TempDir()
			}
			var out bytes.Buffer
			res, err := runOne(w, cfg, 1, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", w.Name, trace, d.Name, m, ok)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, d.Name, m.Value)
				}
			}
			// What the issue defines on the serving workloads only comes
			// out beside the contract's metrics, from the untraced run.
			_, served := res.Beside["logical_fail_rate"]
			if want := !trace && (w.Name == "wire-flood" || w.Name == "fleet-paced"); served != want {
				t.Errorf("%s trace=%v: logical_fail_rate reported %v, want %v", w.Name, trace, served, want)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, %d of %d ops failed\n%s", w.Name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			if trace {
				if _, err := os.Stat(cfg.OutDir + "/trace-" + w.Name + ".json"); err != nil {
					t.Errorf("%s: no trace written: %v", w.Name, err)
				}
			}
		}
	}
}
