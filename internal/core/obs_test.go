package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"reviewsolver/internal/obs"
	"reviewsolver/internal/synth"
)

// TestObservationDoesNotChangeOutput: installing a recorder and collecting
// an explain trace must never alter mappings or rankings.
func TestObservationDoesNotChangeOutput(t *testing.T) {
	data := synth.GenerateSample(7)
	app := data.App
	plain := New()
	observed := New(WithObserver(obs.NewRecorder(obs.NewRegistry(), nil)), WithParallelism(4))

	reviews := data.Reviews
	if len(reviews) > 20 {
		reviews = reviews[:20]
	}
	for i, rv := range reviews {
		want := plain.LocalizeReview(app, rv.Text, rv.PublishedAt)
		got, tr := observed.LocalizeReviewTraced(app, rv.Text, rv.PublishedAt)
		if !reflect.DeepEqual(got.Mappings, want.Mappings) {
			t.Fatalf("review %d: observed mappings differ from plain", i)
		}
		if !reflect.DeepEqual(got.Ranked, want.Ranked) {
			t.Fatalf("review %d: observed ranking differs from plain", i)
		}
		if tr == nil {
			t.Fatalf("review %d: traced run returned no trace", i)
		}
	}
}

// TestTraceByteDeterminism is the acceptance property of the explain
// artifact: for a fixed review the JSON encoding must be byte-identical
// across repeated runs and across parallelism settings.
func TestTraceByteDeterminism(t *testing.T) {
	data := synth.GenerateSample(3)
	app := data.App
	reviews := data.Reviews
	if len(reviews) > 15 {
		reviews = reviews[:15]
	}

	encode := func(s *Solver) [][]byte {
		out := make([][]byte, len(reviews))
		for i, rv := range reviews {
			_, tr := s.LocalizeReviewTraced(app, rv.Text, rv.PublishedAt)
			jsonBytes, err := tr.JSON()
			if err != nil {
				t.Fatalf("review %d: %v", i, err)
			}
			if err := obs.ValidateTraceJSON(jsonBytes); err != nil {
				t.Fatalf("review %d: %v", i, err)
			}
			out[i] = jsonBytes
		}
		return out
	}

	sn := NewSnapshot()
	base := encode(NewWithSnapshot(sn))
	rerun := encode(NewWithSnapshot(sn))
	parallel := encode(NewWithSnapshot(sn, WithParallelism(8)))
	observed := encode(NewWithSnapshot(sn, WithParallelism(8),
		WithObserver(obs.NewRecorder(obs.NewRegistry(), nil))))

	for i := range base {
		if !bytes.Equal(base[i], rerun[i]) {
			t.Errorf("review %d: trace differs across runs", i)
		}
		if !bytes.Equal(base[i], parallel[i]) {
			t.Errorf("review %d: trace differs between sequential and 8-way parallel", i)
		}
		if !bytes.Equal(base[i], observed[i]) {
			t.Errorf("review %d: trace differs with a recorder installed", i)
		}
	}
}

// TestTraceContent spot-checks the acceptance criterion on a review known
// to localize: the trace must name the matched phrase, the information
// source, the similarity, and the scan counts, and the ranked entries
// must point at their supporting matches.
func TestTraceContent(t *testing.T) {
	data := synth.GenerateSample(1)
	app := data.App
	s := New()
	var tr *obs.ReviewTrace
	var res *Result
	for _, rv := range data.Reviews {
		r, rt := s.LocalizeReviewTraced(app, rv.Text, rv.PublishedAt)
		if r.Localized() && len(rt.Scans) > 0 {
			res, tr = r, rt
			break
		}
	}
	if res == nil {
		t.Fatal("no review in the seeded corpus localized via a matrix scan")
	}
	if len(tr.Matches) == 0 {
		t.Fatal("localized review produced no trace matches")
	}
	for i, m := range tr.Matches {
		if m.Phrase == "" || m.Source == "" || m.Stage == "" {
			t.Fatalf("match %d incomplete: %+v", i, m)
		}
	}
	if len(tr.Scans) == 0 {
		t.Fatal("trace has no scan records")
	}
	if len(tr.Ranked) != len(res.Ranked) {
		t.Fatalf("trace has %d ranked entries, result has %d", len(tr.Ranked), len(res.Ranked))
	}
	for _, rt := range tr.Ranked {
		if len(rt.Matches) == 0 {
			t.Fatalf("ranked class %s has no supporting matches", rt.Class)
		}
		for _, mi := range rt.Matches {
			if tr.Matches[mi].Class != rt.Class {
				t.Fatalf("ranked class %s points at match for %s", rt.Class, tr.Matches[mi].Class)
			}
		}
	}
	// The stage walk must cover the root pipeline and all nine localizers.
	stages := make(map[string]bool, len(tr.Stages))
	for _, st := range tr.Stages {
		stages[st.Stage] = true
	}
	for _, want := range []string{
		stageClassify, stageStatic, stageAnalyze, stageLocalize, stageRank,
		stageAppSpecific, stageGUI, stageErrorMessage, stageOpeningApp,
		stageRegistration, stageAPIURIIntent, stageGeneralTask, stageException, stageUpdate,
	} {
		if !stages[want] {
			t.Errorf("trace stage walk is missing %q", want)
		}
	}
}

// TestPoolLocalizeTraced runs the traced pool end to end (the -race gate
// covers the registry and trace aggregation under concurrency) and checks
// the registry totals and drained gauges.
func TestPoolLocalizeTraced(t *testing.T) {
	apps, inputs := poolInputs(40)
	app := apps[0].App

	reg := obs.NewRegistry()
	pool := NewPool(4).WithObserver(obs.NewRecorder(reg, nil))
	results, traces := pool.LocalizeTraced(app, inputs)

	if len(results) != len(inputs) || len(traces) != len(inputs) {
		t.Fatalf("got %d results / %d traces for %d inputs", len(results), len(traces), len(inputs))
	}
	seq := New()
	for i, in := range inputs {
		want := seq.LocalizeReview(app, in.Text, in.PublishedAt)
		if !reflect.DeepEqual(results[i].Mappings, want.Mappings) {
			t.Fatalf("input %d: traced pool mappings differ from sequential", i)
		}
		if traces[i] == nil {
			t.Fatalf("input %d: nil trace", i)
		}
		if traces[i].Pool == nil || traces[i].Pool.Workers != pool.Size() {
			t.Fatalf("input %d: pool occupancy block missing or wrong: %+v", i, traces[i].Pool)
		}
		jsonBytes, err := traces[i].JSON()
		if err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		if err := obs.ValidateTraceJSON(jsonBytes); err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
	}

	snap := reg.Snapshot()
	if got := snap[metricReviews]; got != float64(len(inputs)) {
		t.Errorf("%s = %g, want %d", metricReviews, got, len(inputs))
	}
	if got := snap[metricPoolJobs]; got != float64(len(inputs)) {
		t.Errorf("%s = %g, want %d", metricPoolJobs, got, len(inputs))
	}
	if got := snap[metricPoolQueueDepth]; got != 0 {
		t.Errorf("%s = %g, want 0 after drain", metricPoolQueueDepth, got)
	}
	if got := snap[metricPoolBusy]; got != 0 {
		t.Errorf("%s = %g, want 0 after drain", metricPoolBusy, got)
	}
	if got := snap["stage_review_ns|count"]; got != float64(len(inputs)) {
		t.Errorf("stage_review_ns|count = %g, want %d", got, len(inputs))
	}
	if snap[metricPrescreenEvaluated] <= 0 {
		t.Error("scan counters did not move")
	}
}

// TestStageCounters: the registry must count pipeline stages and reviews
// exactly, and scan-count aggregation must match the dedicated stat probes.
func TestStageCounters(t *testing.T) {
	data := synth.GenerateSample(5)
	app := data.App
	reg := obs.NewRegistry()
	s := New(WithObserver(obs.NewRecorder(reg, nil)))

	const n = 10
	for i := 0; i < n; i++ {
		rv := data.Reviews[i]
		s.LocalizeReview(app, rv.Text, rv.PublishedAt)
	}
	snap := reg.Snapshot()
	if got := snap[metricReviews]; got != n {
		t.Errorf("%s = %g, want %d", metricReviews, got, n)
	}
	// No classifier installed: every review is an error review, so every
	// stage ran once per review.
	if got := snap[metricErrorReviews]; got != n {
		t.Errorf("%s = %g, want %d", metricErrorReviews, got, n)
	}
	for _, stage := range []string{stageClassify, stageAnalyze, stageLocalize, stageRank, stageAppSpecific} {
		if got := snap["stage_"+stage+"_calls_total"]; got != n {
			t.Errorf("stage %s ran %g times, want %d", stage, got, n)
		}
	}
}

// TestTraceJSONOmitsWallClock guards the determinism contract at the schema
// level: no field of the encoded trace may carry a duration or timestamp.
func TestTraceJSONOmitsWallClock(t *testing.T) {
	data := synth.GenerateSample(1)
	s := New()
	rv := data.Reviews[0]
	_, tr := s.LocalizeReviewTraced(data.App, rv.Text, rv.PublishedAt)
	jsonBytes, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(jsonBytes, &m); err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"ns", "duration", "elapsed", "time", "timestamp"} {
		if _, ok := m[banned]; ok {
			t.Errorf("trace has wall-clock field %q", banned)
		}
	}
}
