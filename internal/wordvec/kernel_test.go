package wordvec

import (
	"math"
	"math/rand"
	"testing"
)

// randomUnit returns a random unit vector.
func randomUnit(rng *rand.Rand) Vector {
	var v Vector
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	normalize(&v)
	return v
}

// phraseCorpus embeds a spread of in-lexicon, out-of-lexicon, and mixed
// phrases — the vector population the real scans see.
func phraseCorpus(m *Model) []Vector {
	phrases := [][]string{
		{"fetch", "mail"}, {"get", "email"}, {"send", "message"},
		{"upload", "photo"}, {"save", "picture"}, {"delete", "file"},
		{"open", "app"}, {"login", "account"}, {"play", "video"},
		{"connect", "server"}, {"zorblax", "quux"}, {"frobnicate", "widget"},
		{"crash", "launch"}, {"sync", "calendar"}, {"read", "article"},
		{"show", "password"}, {"record", "audio"}, {"browse", "website"},
		{"parse", "xml", "config"}, {"validate", "email", "address"},
	}
	out := make([]Vector, 0, len(phrases))
	for _, p := range phrases {
		out = append(out, m.PhraseVector(p))
	}
	return out
}

// TestDotEqualsCosineOnUnitVectors: on the unit-or-zero vectors the model
// produces, Dot must agree with Cosine to float tolerance (they differ only
// by the redundant norm division), and exactly reproduce a naive dot.
func TestDotEqualsCosineOnUnitVectors(t *testing.T) {
	m := NewModel()
	vecs := phraseCorpus(m)
	for i, a := range vecs {
		for _, b := range vecs {
			dot := Dot(a, b)
			cos := Cosine(a, b)
			if math.Abs(dot-cos) > 1e-12 {
				t.Fatalf("vec %d: Dot=%v Cosine=%v diverge beyond tolerance", i, dot, cos)
			}
		}
	}
	// Zero vector: both conventions yield 0.
	var zero Vector
	if Dot(zero, vecs[0]) != 0 {
		t.Fatal("Dot with zero vector must be 0")
	}
	if Cosine(zero, vecs[0]) != 0 {
		t.Fatal("Cosine with zero vector must be 0")
	}
}

// TestDotUnrollMatchesNaive: the 4-way unrolled kernel must match a naive
// sequential dot to within reassociation tolerance on arbitrary vectors.
func TestDotUnrollMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		a, b := randomUnit(rng), randomUnit(rng)
		var naive float64
		for i := 0; i < Dim; i++ {
			naive += a[i] * b[i]
		}
		if math.Abs(Dot(a, b)-naive) > 1e-12 {
			t.Fatalf("trial %d: unrolled %v vs naive %v", trial, Dot(a, b), naive)
		}
	}
}

func TestDotBatch(t *testing.T) {
	m := NewModel()
	vecs := phraseCorpus(m)
	mat := NewMatrix(len(vecs))
	for _, v := range vecs {
		mat.Append(v)
	}
	q := m.PhraseVector([]string{"fetch", "mail"})
	out := make([]float64, mat.Rows())
	DotBatch(q, mat.Data(), out)
	for r, v := range vecs {
		if got := out[r]; got != Dot(q, v) {
			t.Fatalf("row %d: DotBatch %v != Dot %v", r, got, Dot(q, v))
		}
	}
}

// TestScanThresholdMatchesBruteForce: the threshold scan must yield
// exactly the rows a brute-force dot pass finds, for thresholds around the
// operating point.
func TestScanThresholdMatchesBruteForce(t *testing.T) {
	m := NewModel()
	rng := rand.New(rand.NewSource(3))
	var cands []Vector
	cands = append(cands, phraseCorpus(m)...)
	for i := 0; i < 300; i++ {
		cands = append(cands, randomUnit(rng))
	}
	mat := NewMatrix(len(cands))
	for _, v := range cands {
		mat.Append(v)
	}

	for _, th := range []float64{0.2, 0.5, DefaultThreshold, 0.9} {
		for qi, qv := range phraseCorpus(m) {
			var want []int
			for r, c := range cands {
				if Dot(qv, c) >= th {
					want = append(want, r)
				}
			}
			var got []int
			mat.ScanThresholdCount(&qv, th, 0, mat.Rows(), func(r int, d float64) {
				if d != Dot(qv, cands[r]) {
					t.Fatalf("query %d row %d: yielded dot %v != Dot %v", qi, r, d, Dot(qv, cands[r]))
				}
				got = append(got, r)
			})
			if len(got) != len(want) {
				t.Fatalf("th=%v query %d: scan found %d rows, brute force %d", th, qi, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("th=%v query %d: row %d differs (%d vs %d)", th, qi, i, got[i], want[i])
				}
			}
			// AnyAtLeastCount agrees with the scan.
			if hit, _ := mat.AnyAtLeastCount(&qv, th, 0, mat.Rows()); hit != (len(want) > 0) {
				t.Fatalf("th=%v query %d: AnyAtLeastCount disagrees with scan", th, qi)
			}
		}
	}
}

// TestScanCountConsistent: evaluated covers every row, matched equals the
// brute-force match count, and the early-exit AnyAtLeastCount books exactly
// the rows it touched.
func TestScanCountConsistent(t *testing.T) {
	m := NewModel()
	cands := phraseCorpus(m)
	mat := NewMatrix(len(cands))
	for _, v := range cands {
		mat.Append(v)
	}
	q := m.PhraseVector([]string{"fetch", "mail"})
	sc := mat.ScanThresholdCount(&q, DefaultThreshold, 0, mat.Rows(), func(int, float64) {})
	if sc.Evaluated != mat.Rows() {
		t.Fatalf("evaluated %d != rows %d", sc.Evaluated, mat.Rows())
	}
	want := 0
	for _, c := range cands {
		if Dot(q, c) >= DefaultThreshold {
			want++
		}
	}
	if sc.Matched != want {
		t.Fatalf("matched %d != brute force %d", sc.Matched, want)
	}

	hit, asc := mat.AnyAtLeastCount(&q, DefaultThreshold, 0, mat.Rows())
	if hit != (want > 0) {
		t.Fatalf("AnyAtLeastCount hit=%v, brute force %d matches", hit, want)
	}
	if asc.Matched > 1 {
		t.Fatalf("early-exit scan reported %d matches", asc.Matched)
	}
	if asc.Evaluated > mat.Rows() {
		t.Fatalf("early-exit scan touched %d rows of %d", asc.Evaluated, mat.Rows())
	}

	var merged ScanCount
	mid := mat.Rows() / 2
	merged.Merge(mat.ScanThresholdCount(&q, DefaultThreshold, 0, mid, func(int, float64) {}))
	merged.Merge(mat.ScanThresholdCount(&q, DefaultThreshold, mid, mat.Rows(), func(int, float64) {}))
	if merged != sc {
		t.Fatalf("chunked counts %+v != whole-scan counts %+v", merged, sc)
	}
}

// TestMatrixFromParts: a matrix reassembled from its serialized rows must
// scan identically to the original, and mis-shaped data is rejected.
func TestMatrixFromParts(t *testing.T) {
	m := NewModel()
	vecs := phraseCorpus(m)
	orig := NewMatrix(len(vecs))
	for _, v := range vecs {
		orig.Append(v)
	}
	re, err := MatrixFromParts(orig.Data())
	if err != nil {
		t.Fatalf("MatrixFromParts: %v", err)
	}
	q := m.PhraseVector([]string{"receive", "email"})
	type hit struct {
		row int
		dot float64
	}
	scan := func(mx *Matrix) ([]hit, ScanCount) {
		var hits []hit
		sc := mx.ScanThresholdCount(&q, 0.3, 0, mx.Rows(), func(r int, d float64) {
			hits = append(hits, hit{r, d})
		})
		return hits, sc
	}
	wantHits, wantSC := scan(orig)
	gotHits, gotSC := scan(re)
	if len(gotHits) != len(wantHits) || gotSC != wantSC {
		t.Fatalf("rebuilt scan: %v %+v, want %v %+v", gotHits, gotSC, wantHits, wantSC)
	}
	for i := range wantHits {
		if gotHits[i] != wantHits[i] {
			t.Fatalf("hit %d: %+v != %+v", i, gotHits[i], wantHits[i])
		}
	}
	if _, err := MatrixFromParts(orig.Data()[:Dim-1]); err == nil {
		t.Fatal("accepted data not a multiple of Dim")
	}
}

// TestMatrixFromPartsEmpty: the zero-row round trip.
func TestMatrixFromPartsEmpty(t *testing.T) {
	m, err := MatrixFromParts(nil)
	if err != nil || m.Rows() != 0 {
		t.Fatalf("empty rebuild: %v rows=%d", err, m.Rows())
	}
}

// TestRowVectors: the zero-copy []Vector view matches Row contents and
// aliases the block.
func TestRowVectors(t *testing.T) {
	m := NewModel()
	vecs := phraseCorpus(m)
	mx := NewMatrix(len(vecs))
	for _, v := range vecs {
		mx.Append(v)
	}
	view, err := RowVectors(mx.Data())
	if err != nil {
		t.Fatalf("RowVectors: %v", err)
	}
	if len(view) != mx.Rows() {
		t.Fatalf("view rows %d, want %d", len(view), mx.Rows())
	}
	for i := range view {
		if view[i] != vecs[i] {
			t.Fatalf("row %d differs", i)
		}
	}
	if _, err := RowVectors(mx.Data()[:Dim+1]); err == nil {
		t.Fatal("accepted block not a multiple of Dim")
	}
	if v, err := RowVectors(nil); err != nil || v != nil {
		t.Fatalf("empty block: %v %v", v, err)
	}
}
