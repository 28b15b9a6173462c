package main

import (
	"strings"

	"reviewsolver/internal/core"
	"reviewsolver/internal/obs"
	"reviewsolver/internal/synth"
)

// obsSnapshot builds the BENCH_OBS.json snapshot: the telemetry registry
// state after draining the seeded sample corpus through an observed pool.
// Wall-clock-dependent keys (latency histogram buckets and sums) are
// filtered out — only their observation counts stay — so every gated metric
// is an exact function of the seed: review/stage/mapping counters, kernel
// scan totals, match-similarity histogram buckets, and the drained
// pool gauges.
func obsSnapshot(seed int64) snapshotFile {
	data := synth.GenerateSample(seed)
	reg := obs.NewRegistry()
	pool := core.NewPool(4).WithObserver(obs.NewRecorder(reg, nil))

	reviews := make([]core.ReviewInput, len(data.Reviews))
	for i, rv := range data.Reviews {
		reviews[i] = core.ReviewInput{Text: rv.Text, PublishedAt: rv.PublishedAt}
	}
	pool.Localize(data.App, reviews)

	m := make(map[string]float64)
	for k, v := range reg.Snapshot() {
		if nondeterministicKey(k) {
			continue
		}
		m[k] = v
	}
	return snapshotFile{
		Table:   0,
		ID:      "obs",
		Title:   "Pipeline telemetry registry totals",
		Seed:    seed,
		Metrics: m,
	}
}

// nondeterministicKey reports whether a registry snapshot key carries
// wall-clock data. Latency histograms ("stage_<stage>_ns") have
// timing-dependent bucket spreads and sums; their "|count" entries — how
// many spans ran — are deterministic and stay in the gate.
func nondeterministicKey(k string) bool {
	if !strings.Contains(k, "_ns|") {
		return false
	}
	return !strings.HasSuffix(k, "|count")
}
