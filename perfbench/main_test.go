package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
)

// tinySize runs every workload in a second or two: two apps, a small
// training set, a handful of run-on reviews, light padding.
var tinySize = size{apps: 2, trainDocs: 60, triageSeeds: 1, longReviews: 4, longMaxKB: 2, inflate: 1, setups: 1, sample: 20}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declared reads the metric lists of BENCHMARK.json at the repository root.
func declared(t *testing.T) (endToEnd, perLayer []declaredMetric, workloads []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []declaredMetric `json:"end_to_end"`
		PerLayer []declaredMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	return spec.EndToEnd, spec.PerLayer, workloads
}

// TestDeclaredMetricsMatch pins BENCHMARK.json to the metric tables
// perfbench fills.
func TestDeclaredMetricsMatch(t *testing.T) {
	e2e, layers, names := declared(t)
	same := func(kind string, got []declaredMetric, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, perfbench %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), perfbench %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", layers, perLayer)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, perfbench %d", len(names), len(workloads))
	}
	for _, n := range names {
		if workloads[n] == nil {
			t.Errorf("workload %q is declared but not implemented", n)
		}
	}
}

// TestWorkloadsTiny runs every workload, untraced and traced, at a tiny
// size for two seeds: every declared metric is emitted with its unit, no
// output is wrong, and the traced replay agrees with the pipeline (a
// disagreement would count as a failed operation).
func TestWorkloadsTiny(t *testing.T) {
	e2e, layers, names := declared(t)
	for _, name := range names {
		for _, seed := range []int64{1, 2} {
			for _, traced := range []bool{false, true} {
				name, seed, traced := name, seed, traced
				t.Run(fmt.Sprintf("%s/seed=%d/traced=%v", name, seed, traced), func(t *testing.T) {
					res, err := run(name, seed, 0.2, traced, tinySize, t.TempDir())
					if err != nil {
						t.Fatal(err)
					}
					if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
						t.Fatalf("correct=%v attempted=%d failed=%d: error_share must be 0",
							res.Correct, res.Attempted, res.Failed)
					}
					want := e2e
					if traced {
						want = layers
					}
					if len(res.Metrics) != len(want) {
						t.Errorf("emitted %d metrics, want %d", len(res.Metrics), len(want))
					}
					for _, m := range want {
						got, ok := res.Metrics[m.Name]
						switch {
						case !ok:
							t.Errorf("metric %s missing", m.Name)
						case got.Unit != m.Unit:
							t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
						case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
							t.Errorf("metric %s = %v", m.Name, got.Value)
						case !traced && got.Value <= 0:
							t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
						}
					}
					if traced {
						checkShares(t, res)
					}
				})
			}
		}
	}
}

// checkShares asserts that the replay's layer shares cover its wall time.
func checkShares(t *testing.T, res *result) {
	t.Helper()
	sum := res.Metrics["textclass.share"].Value + res.Metrics["analyze.share"].Value +
		res.Metrics["rank.share"].Value + res.Metrics["other.share"].Value
	for _, st := range locStages {
		sum += res.Metrics["loc."+st+".share"].Value
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("layer shares sum to %v, want 1", sum)
	}
}
