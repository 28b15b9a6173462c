package core

import (
	"reflect"
	"testing"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/synth"
)

// TestDeltaMatchesFullLocalization is the incremental rebuild's central
// property test: a snapshot whose releases were extracted as deltas against
// their predecessors must localize byte-identically to a snapshot built
// from scratch, across seeds and inner parallelism.
func TestDeltaMatchesFullLocalization(t *testing.T) {
	for _, seed := range []int64{3, 5, 7, 9} {
		data := synth.GenerateSample(seed)
		app := data.App
		reviews := data.Reviews
		if len(reviews) > 12 {
			reviews = reviews[:12]
		}
		full := NewSnapshot()
		full.PrecomputeApp(app)
		delta := NewSnapshot()
		stats := delta.PrecomputeDelta(app)
		for i, st := range stats {
			if !st.Applied {
				t.Fatalf("seed %d: release %d delta not applied", seed, i)
			}
			if i > 0 && st.Full {
				t.Fatalf("seed %d: release %d fell back to full rebuild (%s)", seed, i, st.Reason)
			}
		}
		for _, workers := range []int{1, 2, 4} {
			fs := NewWithSnapshot(full, WithParallelism(workers))
			ds := NewWithSnapshot(delta, WithParallelism(workers))
			for i, rv := range reviews {
				want := fs.LocalizeReview(app, rv.Text, rv.PublishedAt)
				got := ds.LocalizeReview(app, rv.Text, rv.PublishedAt)
				if !reflect.DeepEqual(got.Mappings, want.Mappings) || !reflect.DeepEqual(got.Ranked, want.Ranked) {
					t.Fatalf("seed %d workers %d review %d: delta-built output differs from full build",
						seed, workers, i)
				}
				if want.Release != nil && got.Release != want.Release {
					t.Fatalf("seed %d review %d: release selection differs", seed, i)
				}
			}
		}
		// The explain traces (which additionally pin scan row counts and
		// per-match similarities) must agree bit for bit.
		fs := NewWithSnapshot(full)
		ds := NewWithSnapshot(delta)
		for i, rv := range reviews {
			_, wantTr := fs.LocalizeReviewTraced(app, rv.Text, rv.PublishedAt)
			_, gotTr := ds.LocalizeReviewTraced(app, rv.Text, rv.PublishedAt)
			wj, err1 := wantTr.JSON()
			gj, err2 := gotTr.JSON()
			if err1 != nil || err2 != nil {
				t.Fatalf("trace JSON: %v / %v", err1, err2)
			}
			if string(wj) != string(gj) {
				t.Fatalf("seed %d review %d: delta-built trace differs from full build", seed, i)
			}
		}
	}
}

// TestDeltaStatsReportReuse: consecutive synthetic releases differ by a
// fault fix and one helper class, so the delta path must reuse the vast
// majority of method rows and GUI recoveries.
func TestDeltaStatsReportReuse(t *testing.T) {
	app := synth.GenerateSample(5).App
	if len(app.Releases) < 2 {
		t.Skip("sample app has a single release")
	}
	sn := NewSnapshot()
	stats := sn.PrecomputeDelta(app)
	for i := 1; i < len(stats); i++ {
		st := stats[i]
		if st.RowsReused() == 0 {
			t.Fatalf("release %d: no matrix rows reused", i)
		}
		if st.RowsReused() < st.RowsFresh() {
			t.Fatalf("release %d: reused %d rows < fresh %d — delta degenerated",
				i, st.RowsReused(), st.RowsFresh())
		}
		if st.GUIsReused == 0 {
			t.Fatalf("release %d: no GUI recoveries reused", i)
		}
	}
}

// TestExtractStaticDeltaFallbacks: a nil base and a majority-touched diff
// both fall back to the full extraction, reported in the stats.
func TestExtractStaticDeltaFallbacks(t *testing.T) {
	app := synth.GenerateSample(3).App
	s := New()
	info, st := s.ExtractStaticDelta(nil, app.Releases[0])
	if !st.Full || info == nil {
		t.Fatal("nil base must fall back to full extraction")
	}

	// Obfuscation renames every class, so the diff touches all of them.
	obf := synth.Obfuscate(app.Releases[0])
	prev := s.StaticFor(app.Releases[0])
	info, st = s.ExtractStaticDelta(prev, obf)
	if info == nil {
		t.Fatal("majority-touched delta returned no extraction")
	}
	if !st.Full {
		t.Fatal("majority-touched diff must fall back to full extraction")
	}
}

// TestApplyDeltaIdempotent: applying a delta for an already-extracted
// release is a no-op and reports Applied=false.
func TestApplyDeltaIdempotent(t *testing.T) {
	app := synth.GenerateSample(3).App
	if len(app.Releases) < 2 {
		t.Skip("sample app has a single release")
	}
	sn := NewSnapshot()
	first := sn.ApplyDelta(app.Releases[0], app.Releases[1])
	if !first.Applied {
		t.Fatal("first ApplyDelta did not run")
	}
	again := sn.ApplyDelta(app.Releases[0], app.Releases[1])
	if again.Applied {
		t.Fatal("second ApplyDelta recomputed a cached release")
	}
	if sn.StaticFor(app.Releases[1]) == nil {
		t.Fatal("delta-applied release not readable")
	}
}

// TestChangeAwareRankBoostsChangedClasses: under WithChangeAwareRank every
// candidate class touched by the version bump must rank ahead of every
// unchanged candidate, and the mapping set (localization proper) must be
// untouched.
func TestChangeAwareRankBoostsChangedClasses(t *testing.T) {
	for _, seed := range []int64{3, 5, 9} {
		data := synth.GenerateSample(seed)
		app := data.App
		plain := New()
		aware := New(WithChangeAwareRank())
		for _, rv := range data.Reviews {
			want := plain.LocalizeReview(app, rv.Text, rv.PublishedAt)
			got := aware.LocalizeReview(app, rv.Text, rv.PublishedAt)
			if !reflect.DeepEqual(got.Mappings, want.Mappings) {
				t.Fatal("change-aware ranking altered the mapping set")
			}
			_, previous, ok := app.ReleaseBefore(rv.PublishedAt)
			if !ok || previous == nil {
				// No predecessor: rankings must agree exactly.
				if !reflect.DeepEqual(got.Ranked, want.Ranked) {
					t.Fatal("no-predecessor review ranked differently under change-aware ranking")
				}
				continue
			}
			seenUnchanged := false
			for _, rc := range got.Ranked {
				if rc.Changed && seenUnchanged {
					t.Fatalf("seed %d: changed class %s ranked below an unchanged one", seed, rc.Class)
				}
				if !rc.Changed {
					seenUnchanged = true
				}
			}
		}
	}
}

// TestChangeAwareRankUsesDiff pins the Changed flag to the structural diff:
// every class marked Changed must be in the touched set of the
// (previous, current) release diff.
func TestChangeAwareRankUsesDiff(t *testing.T) {
	data := synth.GenerateSample(5)
	app := data.App
	aware := New(WithChangeAwareRank())
	checked := 0
	for _, rv := range data.Reviews {
		res := aware.LocalizeReview(app, rv.Text, rv.PublishedAt)
		current, previous, ok := app.ReleaseBefore(rv.PublishedAt)
		if !ok || previous == nil || res.Release != current {
			continue
		}
		d := apk.DiffReleases(previous, current)
		for _, rc := range res.Ranked {
			if rc.Changed && !d.ClassTouched(rc.Class) {
				t.Fatalf("class %s marked changed but diff disagrees", rc.Class)
			}
			if !rc.Changed && d.ClassTouched(rc.Class) {
				t.Fatalf("class %s touched by diff but not marked changed", rc.Class)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Skip("no review hit a release with a predecessor")
	}
}
