package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

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
// fault fix and one helper class, so the version-bump extraction must reuse
// the vast majority of method rows.
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
	}
}

// TestExtractStaticReuseMatchesCold: an extraction that reuses the previous
// release's name-keyed embeddings must equal a cold ExtractStatic of the
// same release field by field, with every embedding bit-identical — across
// release chains, a wholly renamed (obfuscated) release, a renamed class
// whose lone-verb phrases change, and summarizer rows.
func TestExtractStaticReuseMatchesCold(t *testing.T) {
	for _, seed := range []int64{3, 5, 7, 9} {
		app := synth.GenerateSample(seed).App
		s := New()
		prev, st := s.ExtractStaticDelta(nil, app.Releases[0])
		assertSameExtraction(t, fmt.Sprintf("seed %d nil base", seed), prev, s.ExtractStatic(app.Releases[0]))
		if st.MethodRowsReused != 0 || st.MethodRowsFresh != len(prev.MethodPhrases) {
			t.Fatalf("seed %d nil base: stats %+v", seed, st)
		}
		for i := 1; i < len(app.Releases); i++ {
			r := app.Releases[i]
			got, st := s.ExtractStaticDelta(prev, r)
			assertSameExtraction(t, fmt.Sprintf("seed %d release %d", seed, i), got, s.ExtractStatic(r))
			if st.MethodRowsReused == 0 {
				t.Fatalf("seed %d release %d: no method rows reused", seed, i)
			}
			prev = got
		}
	}

	// Obfuscation renames every method but the lifecycle entry points, so
	// the diff changes a majority of classes; only the entry points' rows
	// are reusable by name, and the result must still equal the cold build.
	app := synth.GenerateSample(3).App
	s := New()
	obf := synth.Obfuscate(app.Releases[0])
	got, st := s.ExtractStaticDelta(s.ExtractStatic(app.Releases[0]), obf)
	assertSameExtraction(t, "obfuscated", got, s.ExtractStatic(obf))
	if 2*st.ClassesChanged <= len(obf.Classes) {
		t.Fatalf("obfuscated release: only %d of %d classes changed", st.ClassesChanged, len(obf.Classes))
	}

	// A renamed class keeps its method names, but a lone verb takes the
	// class-name words as its object, so the renamed class's rows must be
	// fresh while the untouched class's rows are reused.
	b := apk.NewBuilder("com.example.mail", "Mail")
	b.Release("1.0", 1, time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC))
	b.Class("com.example.mail.MessageListFragment").
		Method("move", apk.Invoke("", "android.widget.Toast", "makeText")).
		Method("refreshMessages")
	b.Class("com.example.mail.AccountSettings").
		Method("saveAccount", apk.Invoke("", "android.widget.Toast", "makeText"))
	b.CopyRelease("1.1", 2, time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC))
	b.RemoveClass("com.example.mail.MessageListFragment")
	b.Class("com.example.mail.FolderListFragment").
		Method("move", apk.Invoke("", "android.widget.Toast", "makeText")).
		Method("refreshMessages")
	renamed := b.Build()
	s = New()
	r0, r1 := renamed.Releases[0], renamed.Releases[1]
	got, st = s.ExtractStaticDelta(s.ExtractStatic(r0), r1)
	assertSameExtraction(t, "renamed class", got, s.ExtractStatic(r1))
	if st.MethodRowsReused != 1 || st.ClassesAdded != 1 || st.ClassesRemoved != 1 {
		t.Fatalf("renamed class: stats %+v, want 1 reused row, 1 added and 1 removed class", st)
	}
	for _, mp := range got.MethodPhrases {
		if mp.Method.QualifiedName() == "com.example.mail.FolderListFragment.move" &&
			strings.Join(mp.Words, " ") != "move folder list fragment" {
			t.Fatalf("renamed lone verb kept a stale phrase: %q", mp.Words)
		}
	}

	// Summary rows read the method body and are recomputed; name rows are
	// still reused beside them.
	data := synth.GenerateSample(5)
	s = New(WithSummarizer(newTrainedSummarizer(t, data.App.Releases[0])), WithSummarizeAll())
	prev := s.ExtractStatic(data.App.Releases[0])
	for i := 1; i < len(data.App.Releases); i++ {
		r := data.App.Releases[i]
		got, _ := s.ExtractStaticDelta(prev, r)
		assertSameExtraction(t, fmt.Sprintf("summarized release %d", i), got, s.ExtractStatic(r))
		prev = got
	}
}

// assertSameExtraction fails unless got equals want in every inventory and
// in every embedding bit.
func assertSameExtraction(t *testing.T, label string, got, want *StaticInfo) {
	t.Helper()
	if len(got.MethodPhrases) != len(want.MethodPhrases) {
		t.Fatalf("%s: %d method phrases, want %d", label, len(got.MethodPhrases), len(want.MethodPhrases))
	}
	for i := range want.MethodPhrases {
		g, w := &got.MethodPhrases[i], &want.MethodPhrases[i]
		if g.Method.QualifiedName() != w.Method.QualifiedName() || g.FromSummary != w.FromSummary ||
			!reflect.DeepEqual(g.Words, w.Words) || !sameBits(g.Vec[:], w.Vec[:]) {
			t.Fatalf("%s: method phrase %d = %s %q, want %s %q", label, i,
				g.Method.QualifiedName(), g.Words, w.Method.QualifiedName(), w.Words)
		}
	}
	if len(got.APIs) != len(want.APIs) {
		t.Fatalf("%s: %d APIs, want %d", label, len(got.APIs), len(want.APIs))
	}
	for i := range want.APIs {
		g, w := &got.APIs[i], &want.APIs[i]
		if !reflect.DeepEqual(g.API, w.API) || !reflect.DeepEqual(g.Classes, w.Classes) ||
			!reflect.DeepEqual(g.Phrases, w.Phrases) || len(g.PhraseVecs) != len(w.PhraseVecs) {
			t.Fatalf("%s: API %d = %+v, want %+v", label, i, g.API, w.API)
		}
		for j := range w.PhraseVecs {
			if !sameBits(g.PhraseVecs[j][:], w.PhraseVecs[j][:]) {
				t.Fatalf("%s: API %d phrase %d embedding differs", label, i, j)
			}
		}
	}
	for name, pair := range map[string][2]any{
		"URIs":          {got.URIs, want.URIs},
		"intents":       {got.Intents, want.Intents},
		"messages":      {got.Messages, want.Messages},
		"GUIs":          {got.GUIs, want.GUIs},
		"invisibleRows": {got.invisibleRows, want.invisibleRows},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Fatalf("%s: %s differ", label, name)
		}
	}
	if !sameBits(got.methodMatrix.Data(), want.methodMatrix.Data()) {
		t.Fatalf("%s: method matrix differs", label)
	}
	if !sameBits(got.invisibleMatrix.Data(), want.invisibleMatrix.Data()) {
		t.Fatalf("%s: invisible matrix differs", label)
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
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
