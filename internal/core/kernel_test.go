package core

import (
	"reflect"
	"testing"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/ctxinfo"
	"reviewsolver/internal/synth"
	"reviewsolver/internal/wordvec"
)

// referenceSolver returns the reference the TestKernel*MatchesLegacy tests
// compare the kernel against: a sequential solver whose catalog and
// per-release StaticInfo were extracted from scratch, with every vector the
// kernel reads from a cache — matrix rows, permission-noun, URI-noun,
// intent-noun and widget-id vectors — checked against a fresh PhraseVector
// of its words, so the reference cannot inherit a stale cache from the code
// under test. Every scan is a brute-force Dot over all rows.
func referenceSolver(t *testing.T, app *apk.App) *Solver {
	t.Helper()
	s := New()
	checkCatalogVectors(t, s, s.catalogVecs())
	for _, r := range app.Releases {
		checkStaticVectors(t, s, s.StaticFor(r))
	}
	return s
}

// requireRow fails unless matrix row r holds exactly v.
func requireRow(t *testing.T, m *wordvec.Matrix, r int, v wordvec.Vector, what string) {
	t.Helper()
	if r >= m.Rows() || !reflect.DeepEqual(m.Row(r), v[:]) {
		t.Fatalf("%s: matrix row %d is not the fresh phrase vector", what, r)
	}
}

func checkCatalogVectors(t *testing.T, s *Solver, table *catalogTable) {
	t.Helper()
	for i := range table.entries {
		e := &table.entries[i]
		row := int(table.rowStart[i])
		for _, p := range apiPhrases(e.api) {
			requireRow(t, table.matrix, row, s.vec.PhraseVector(p), "catalog "+e.api.Signature())
			row++
		}
		if row != int(table.rowStart[i+1]) {
			t.Fatalf("catalog %s: %d phrases for rows %d..%d", e.api.Signature(), row-int(table.rowStart[i]),
				table.rowStart[i], table.rowStart[i+1])
		}
		if len(e.permNouns) > 0 && e.permVec != s.vec.PhraseVector(e.permNouns) {
			t.Fatalf("catalog %s: cached permission vector is stale", e.api.Signature())
		}
	}
	if int(table.rowStart[len(table.entries)]) != table.matrix.Rows() {
		t.Fatalf("catalog has %d rows, entries cover %d", table.matrix.Rows(), table.rowStart[len(table.entries)])
	}
}

func checkStaticVectors(t *testing.T, s *Solver, info *StaticInfo) {
	t.Helper()
	if info.methodMatrix.Rows() != len(info.MethodPhrases) {
		t.Fatalf("%d method rows for %d phrases", info.methodMatrix.Rows(), len(info.MethodPhrases))
	}
	for i := range info.MethodPhrases {
		mp := &info.MethodPhrases[i]
		fresh := s.vec.PhraseVector(mp.Words)
		if mp.Vec != fresh {
			t.Fatalf("method phrase %d: cached vector is stale", i)
		}
		requireRow(t, info.methodMatrix, i, fresh, "method phrase")
	}
	row := 0
	for gi := range info.GUIs {
		for wi, words := range info.GUIs[gi].InvisibleWords {
			var fresh wordvec.Vector
			if len(words) > 0 {
				fresh = s.vec.PhraseVector(words)
			}
			if info.invisibleVecs[gi][wi] != fresh {
				t.Fatalf("GUI %d widget %d: cached widget-id vector is stale", gi, wi)
			}
			if len(words) > 0 {
				requireRow(t, info.invisibleMatrix, row, fresh, "widget id")
				row++
			}
		}
	}
	if row != info.invisibleMatrix.Rows() {
		t.Fatalf("%d widget-id phrases for %d invisible rows", row, info.invisibleMatrix.Rows())
	}
	for i := range info.URIs {
		var fresh wordvec.Vector
		if len(info.URIs[i].Nouns) > 0 {
			fresh = s.vec.PhraseVector(info.URIs[i].Nouns)
		}
		if info.uriNounVecs[i] != fresh {
			t.Fatalf("URI %s: cached noun vector is stale", info.URIs[i].URI.URI)
		}
	}
	for i := range info.Intents {
		if len(info.intentNounVecs[i]) != len(info.Intents[i].Nouns) {
			t.Fatalf("intent %s: %d vectors for %d nouns", info.Intents[i].Action,
				len(info.intentNounVecs[i]), len(info.Intents[i].Nouns))
		}
		for j, noun := range info.Intents[i].Nouns {
			if info.intentNounVecs[i][j] != s.vec.PhraseVector([]string{noun}) {
				t.Fatalf("intent %s noun %q: cached vector is stale", info.Intents[i].Action, noun)
			}
		}
	}
}

// TestKernelRankingMatchesLegacy is the property test of the kernel layer:
// across seeded synthetic corpora, the full-pipeline output of the default
// matrix-kernel matcher (flattened dot scans) must be byte-identical to the
// brute-force reference.
func TestKernelRankingMatchesLegacy(t *testing.T) {
	for _, seed := range []int64{3, 7, 21} {
		data := synth.GenerateSample(seed)
		app := data.App

		kernel := New()
		ref := referenceSolver(t, app)

		reviews := data.Reviews
		if len(reviews) > 25 {
			reviews = reviews[:25]
		}
		for i, rv := range reviews {
			want := ref.LocalizeReview(app, rv.Text, rv.PublishedAt)
			got := kernel.LocalizeReview(app, rv.Text, rv.PublishedAt)
			if !reflect.DeepEqual(got.Mappings, want.Mappings) {
				t.Fatalf("seed %d review %d: kernel mappings differ from the brute-force reference", seed, i)
			}
			if !reflect.DeepEqual(got.Ranked, want.Ranked) {
				t.Fatalf("seed %d review %d: kernel ranking differs from the brute-force reference", seed, i)
			}
		}
	}
}

// TestKernelSnapshotParallelMatchesLegacy stacks every layer at once: a
// snapshot-backed solver with inner parallelism and the kernel matcher must
// reproduce the sequential brute-force reference byte for byte.
func TestKernelSnapshotParallelMatchesLegacy(t *testing.T) {
	data := synth.GenerateSample(5)
	app := data.App

	ref := referenceSolver(t, app)
	sn := NewSnapshot()
	kernel := NewWithSnapshot(sn, WithParallelism(4))

	reviews := data.Reviews
	if len(reviews) > 20 {
		reviews = reviews[:20]
	}
	for i, rv := range reviews {
		want := ref.LocalizeReview(app, rv.Text, rv.PublishedAt)
		got := kernel.LocalizeReview(app, rv.Text, rv.PublishedAt)
		if !reflect.DeepEqual(got.Mappings, want.Mappings) {
			t.Fatalf("review %d: snapshot+parallel kernel mappings differ from the reference", i)
		}
		if !reflect.DeepEqual(got.Ranked, want.Ranked) {
			t.Fatalf("review %d: snapshot+parallel kernel ranking differs from the reference", i)
		}
	}
}

// TestKernelPerContextMatchesLegacy exercises each vector-driven localizer
// in isolation so a divergence pinpoints the context that broke.
func TestKernelPerContextMatchesLegacy(t *testing.T) {
	data := synth.GenerateSample(9)
	app := data.App

	kernel := New()
	ref := referenceSolver(t, app)

	release := app.Releases[len(app.Releases)-1]
	prev := app.Releases[len(app.Releases)-2]
	kInfo := kernel.StaticFor(release)
	rInfo := ref.StaticFor(release)

	reviews := data.Reviews
	if len(reviews) > 15 {
		reviews = reviews[:15]
	}
	for i, rv := range reviews {
		ra := kernel.AnalyzeReview(rv.Text)
		for _, ctx := range ctxinfo.All() {
			want := ref.LocalizeByContext(ctx, ra, rInfo, prev, release)
			got := kernel.LocalizeByContext(ctx, ra, kInfo, prev, release)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("review %d context %s: kernel mappings differ from the reference", i, ctx)
			}
		}
	}
}

// TestReferenceScansEveryRow pins what makes the reference a reference: a
// scan evaluates every row and prunes none.
func TestReferenceScansEveryRow(t *testing.T) {
	data := synth.GenerateSample(3)
	ref := referenceSolver(t, data.App)
	info := ref.StaticFor(data.App.Releases[len(data.App.Releases)-1])
	if pruned, evaluated, _ := ref.KernelScanStats(info, "fetch mail"); pruned != 0 || evaluated != info.MethodRows() {
		t.Fatalf("reference method scan pruned %d, evaluated %d of %d rows", pruned, evaluated, info.MethodRows())
	}
	if pruned, evaluated, _ := ref.CatalogScanStats("fetch mail"); pruned != 0 || evaluated != ref.CatalogRows() {
		t.Fatalf("reference catalog scan pruned %d, evaluated %d of %d rows", pruned, evaluated, ref.CatalogRows())
	}
}

// TestScanStatsDeterministic guards the scan bookkeeping benchgate
// snapshots: stats are stable across repeated scans of the same corpus.
func TestScanStatsDeterministic(t *testing.T) {
	data := synth.GenerateSample(3)
	s := New()
	info := s.StaticFor(data.App.Releases[len(data.App.Releases)-1])
	p1, e1, m1 := s.KernelScanStats(info, "fetch mail")
	p2, e2, m2 := s.KernelScanStats(info, "fetch mail")
	if p1 != p2 || e1 != e2 || m1 != m2 {
		t.Fatalf("scan stats not deterministic: (%d,%d,%d) vs (%d,%d,%d)", p1, e1, m1, p2, e2, m2)
	}
	if p1+e1 != info.methodMatrix.Rows() {
		t.Fatalf("pruned %d + evaluated %d != rows %d", p1, e1, info.methodMatrix.Rows())
	}
}
