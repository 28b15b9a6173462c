package main

import (
	"fmt"
	"reflect"

	"reviewsolver/internal/core"
	"reviewsolver/internal/experiments"
	"reviewsolver/internal/synth"
)

// deltaSnapshot builds the BENCH_DELTA.json gate for version-bump
// rebuilds: structural diff counts and embedding-reuse accounting for the
// seeded app's release chain, invariants pinned at their only acceptable
// value (delta-vs-full localization mismatches 0, delta image determinism
// and load equivalence 1), and the headline metrics of the change-aware
// change-file-localization table (Table 17). A differ regression shows up
// as a diff-count drift, a reuse regression as a row-accounting drift, and
// a soundness break as a non-zero mismatch pin.
func deltaSnapshot(seed int64, runner *experiments.Runner) (snapshotFile, error) {
	data := synth.GenerateSample(seed)
	app := data.App
	if len(app.Releases) < 2 {
		return snapshotFile{}, fmt.Errorf("sample app has %d releases; need 2+", len(app.Releases))
	}

	// Full chain vs delta chain over the same release history.
	full := core.NewSnapshot()
	full.PrecomputeApp(app)
	dsn := core.NewSnapshot()
	stats := dsn.PrecomputeDelta(app)

	var agg core.DeltaStats
	for _, st := range stats[1:] {
		agg.ClassesAdded += st.ClassesAdded
		agg.ClassesRemoved += st.ClassesRemoved
		agg.ClassesChanged += st.ClassesChanged
		agg.MethodRowsReused += st.MethodRowsReused
		agg.MethodRowsFresh += st.MethodRowsFresh
		agg.InvisibleRowsFresh += st.InvisibleRowsFresh
	}

	// Delta-vs-full localization equivalence over a fixed review sample;
	// pinned at zero so any divergence fails the gate.
	builtFull := core.NewWithSnapshot(full)
	builtDelta := core.NewWithSnapshot(dsn)
	reviews := data.Reviews
	if len(reviews) > 20 {
		reviews = reviews[:20]
	}
	mismatches := 0
	for _, rv := range reviews {
		want := builtFull.LocalizeReview(app, rv.Text, rv.PublishedAt)
		got := builtDelta.LocalizeReview(app, rv.Text, rv.PublishedAt)
		if !reflect.DeepEqual(got.Mappings, want.Mappings) || !reflect.DeepEqual(got.Ranked, want.Ranked) {
			mismatches++
		}
	}

	// Delta image: deterministic bytes and load equivalence against the
	// version-bump base (all but the last release).
	base := *app
	base.Releases = app.Releases[:len(app.Releases)-1]
	baseImg, err := core.EncodeSnapshot(core.NewSnapshot(), &base)
	if err != nil {
		return snapshotFile{}, fmt.Errorf("encode delta base: %w", err)
	}
	deltaImg, err := core.EncodeSnapshotDelta(core.NewSnapshot(), app, baseImg)
	if err != nil {
		return snapshotFile{}, fmt.Errorf("encode delta image: %w", err)
	}
	deltaImg2, err := core.EncodeSnapshotDelta(core.NewSnapshot(), app, baseImg)
	if err != nil {
		return snapshotFile{}, fmt.Errorf("second delta encode: %w", err)
	}
	deterministic := 0.0
	if string(deltaImg) == string(deltaImg2) {
		deterministic = 1
	}
	loaded, lapp, err := core.LoadSnapshotDeltaImages(deltaImg, baseImg)
	if err != nil {
		return snapshotFile{}, fmt.Errorf("load delta image: %w", err)
	}
	fromDelta := core.NewWithSnapshot(loaded)
	loadMismatches := 0
	for _, rv := range reviews {
		want := builtFull.LocalizeReview(app, rv.Text, rv.PublishedAt)
		got := fromDelta.LocalizeReview(lapp, rv.Text, rv.PublishedAt)
		if !reflect.DeepEqual(got.Mappings, want.Mappings) || !reflect.DeepEqual(got.Ranked, want.Ranked) {
			loadMismatches++
		}
	}

	metrics := map[string]float64{
		"diff|classes_added":      float64(agg.ClassesAdded),
		"diff|classes_removed":    float64(agg.ClassesRemoved),
		"diff|classes_changed":    float64(agg.ClassesChanged),
		"rows|method_reused":      float64(agg.MethodRowsReused),
		"rows|method_fresh":       float64(agg.MethodRowsFresh),
		"rows|invisible_fresh":    float64(agg.InvisibleRowsFresh),
		"image|delta_bytes":       float64(len(deltaImg)),
		"image|base_bytes":        float64(len(baseImg)),
		"pin|delta_vs_full":       float64(mismatches),
		"pin|delta_load_vs_full":  float64(loadMismatches),
		"pin|delta_deterministic": deterministic,
	}
	// Change-aware table headline: every numeric cell of Table 17, so the
	// hit rates and MRR of both ranking modes are gated together with the
	// rebuild accounting.
	for k, v := range tableMetrics(runner.Table17()) {
		metrics["t17|"+k] = v
	}

	return snapshotFile{
		Table:   0,
		ID:      "delta",
		Title:   "Incremental rebuild diff accounting and change-aware localization gate",
		Seed:    seed,
		Metrics: metrics,
	}, nil
}
