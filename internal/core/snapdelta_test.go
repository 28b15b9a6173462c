package core

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/snapfile"
	"reviewsolver/internal/synth"
)

// deltaFixture builds the canonical version-bump scenario: a base image for
// all but the last release, and the full app including it.
func deltaFixture(t *testing.T, seed int64) (app, baseApp *apk.App, baseImg []byte) {
	t.Helper()
	data := synth.GenerateSample(seed)
	app = data.App
	if len(app.Releases) < 2 {
		t.Skip("sample app has a single release")
	}
	baseApp = &apk.App{
		Package:  app.Package,
		Name:     app.Name,
		Releases: app.Releases[:len(app.Releases)-1],
	}
	baseImg, err := EncodeSnapshot(NewSnapshot(), baseApp)
	if err != nil {
		t.Fatalf("encode base: %v", err)
	}
	return app, baseApp, baseImg
}

// TestSnapshotDeltaRoundTrip: a delta image loaded against its base must
// localize byte-identically to the full image of the same app, while being
// substantially smaller.
func TestSnapshotDeltaRoundTrip(t *testing.T) {
	for _, seed := range []int64{3, 5} {
		data := synth.GenerateSample(seed)
		app, _, baseImg := deltaFixture(t, seed)

		deltaImg, err := EncodeSnapshotDelta(NewSnapshot(), app, baseImg)
		if err != nil {
			t.Fatalf("encode delta: %v", err)
		}
		fullImg, err := EncodeSnapshot(NewSnapshot(), app)
		if err != nil {
			t.Fatalf("encode full: %v", err)
		}
		if len(deltaImg)*2 >= len(fullImg) {
			t.Errorf("seed %d: delta image %d bytes, full %d — expected well under half",
				seed, len(deltaImg), len(fullImg))
		}

		di, ok := DeltaInfo(deltaImg)
		if !ok {
			t.Fatal("DeltaInfo did not recognize the delta image")
		}
		if di.Package != app.Package || di.BaseCRC != snapfile.Checksum(baseImg) {
			t.Fatalf("delta info binding wrong: %+v", di)
		}
		if di.PatchedReleases != len(app.Releases)-1 || di.Releases != len(app.Releases) {
			t.Fatalf("delta info counts wrong: %+v", di)
		}
		if _, ok := DeltaInfo(fullImg); ok {
			t.Fatal("DeltaInfo claimed a full image is a delta")
		}

		dsn, dApp, err := LoadSnapshotDeltaImages(deltaImg, baseImg)
		if err != nil {
			t.Fatalf("load delta: %v", err)
		}
		fsn, fApp, err := LoadSnapshotBytes(fullImg)
		if err != nil {
			t.Fatalf("load full: %v", err)
		}
		if dsn.MaterializedBytes() == 0 {
			t.Error("delta load reported no materialized bytes")
		}
		ds := NewWithSnapshot(dsn)
		fs := NewWithSnapshot(fsn)
		reviews := data.Reviews
		if len(reviews) > 10 {
			reviews = reviews[:10]
		}
		for i, rv := range reviews {
			want := fs.LocalizeReview(fApp, rv.Text, rv.PublishedAt)
			got := ds.LocalizeReview(dApp, rv.Text, rv.PublishedAt)
			if !reflect.DeepEqual(got.Mappings, want.Mappings) || !reflect.DeepEqual(got.Ranked, want.Ranked) {
				t.Fatalf("seed %d review %d: delta-loaded output differs from full image", seed, i)
			}
			_, wantTr := fs.LocalizeReviewTraced(fApp, rv.Text, rv.PublishedAt)
			_, gotTr := ds.LocalizeReviewTraced(dApp, rv.Text, rv.PublishedAt)
			wj, err1 := wantTr.JSON()
			gj, err2 := gotTr.JSON()
			if err1 != nil || err2 != nil {
				t.Fatalf("trace JSON: %v / %v", err1, err2)
			}
			if string(wj) != string(gj) {
				t.Fatalf("seed %d review %d: delta-loaded trace differs from full image", seed, i)
			}
		}
	}
}

// TestSnapshotDeltaDeterministic: encoding the same snapshot against the
// same base twice produces identical bytes, and the encode is independent of
// whether the snapshot was built from scratch or via PrecomputeDelta.
func TestSnapshotDeltaDeterministic(t *testing.T) {
	app, _, baseImg := deltaFixture(t, 7)
	a, err := EncodeSnapshotDelta(NewSnapshot(), app, baseImg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeSnapshotDelta(NewSnapshot(), app, baseImg)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("two delta encodes of the same app differ")
	}
	inc := NewSnapshot()
	inc.PrecomputeDelta(app)
	c, err := EncodeSnapshotDelta(inc, app, baseImg)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(c) {
		t.Fatal("delta encode of an incrementally built snapshot differs from a full build's")
	}
}

// TestSnapshotDeltaRejections pins the typed error surface: plain loader on
// a delta image, delta loader on a full image, and every base mismatch.
func TestSnapshotDeltaRejections(t *testing.T) {
	app, baseApp, baseImg := deltaFixture(t, 3)
	deltaImg, err := EncodeSnapshotDelta(NewSnapshot(), app, baseImg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSnapshotBytes(deltaImg); !errors.Is(err, ErrSnapshotDelta) {
		t.Fatalf("plain load of a delta image: got %v, want ErrSnapshotDelta", err)
	}
	base, bApp, err := LoadSnapshotBytes(baseImg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSnapshotDeltaBytes(baseImg, base, bApp, snapfile.Checksum(baseImg)); err == nil {
		t.Fatal("delta load of a full image succeeded")
	}
	// Wrong base bytes: the recorded checksum must not match.
	if _, _, err := LoadSnapshotDeltaBytes(deltaImg, base, bApp, snapfile.Checksum(deltaImg)); !errors.Is(err, ErrDeltaBaseMismatch) {
		t.Fatalf("wrong base CRC: got %v, want ErrDeltaBaseMismatch", err)
	}
	// Wrong app: encode against a base of a different package.
	other := &apk.App{Package: app.Package + ".other", Name: app.Name, Releases: baseApp.Releases}
	if _, err := EncodeSnapshotDelta(NewSnapshot(), other, baseImg); !errors.Is(err, ErrDeltaBaseMismatch) {
		t.Fatalf("cross-app delta encode: got %v, want ErrDeltaBaseMismatch", err)
	}
}

// retiredSections is one retired format feature as older writers emitted
// it: where its sections lived (catalog IDs and per-release offsets) and the
// META basis word those writers set.
type retiredSections struct {
	name    string
	catalog []uint32
	release []int
	basis   uint32 // META basis word to write; 0 keeps the image's own
}

// retiredFeatures lists every retired section set: the quantized tier and
// the anchor-prescreen sketch (whose writers also set the basis word to 20).
var retiredFeatures = []retiredSections{
	{"quantized tier", []uint32{secCatQF, secCatQB}, []int{relMQF, relMQB, relIQF, relIQB}, 0},
	{"prescreen sketch", []uint32{secCatProj, secCatRes}, []int{relMProj, relMRes, relIProj, relIRes}, 20},
}

// withReservedSections re-emits an image with junk payloads (valid CRCs)
// appended under one retired feature's reserved section IDs — the catalog
// IDs and the per-release IDs of every release — and with that feature's
// META basis word.
func withReservedSections(t *testing.T, img []byte, releases int, rs retiredSections) []byte {
	t.Helper()
	r, err := snapfile.Open(img)
	if err != nil {
		t.Fatal(err)
	}
	w := snapfile.NewWriter()
	for i := 0; i < r.SectionCount(); i++ {
		id := binary.LittleEndian.Uint32(img[32+32*i:])
		payload, _ := r.Section(id)
		if id == secMeta && rs.basis != 0 {
			payload = append([]byte(nil), payload...)
			// The basis word follows the package string, release count and dim.
			off := 4 + binary.LittleEndian.Uint32(payload) + 4 + 4
			binary.LittleEndian.PutUint32(payload[off:], rs.basis)
		}
		w.Add(id, payload)
	}
	junk := []byte("retired " + rs.name + " \x00\x01\x02\xff")
	for _, id := range rs.catalog {
		w.Add(id, junk)
	}
	for ri := 0; ri < releases; ri++ {
		for _, which := range rs.release {
			w.Add(relSection(ri, which), junk)
		}
	}
	return w.Bytes()
}

// TestOldImageQuantSectionsIgnored: images carrying a retired feature's
// sections (the quantized tier, the prescreen sketch with its basis word)
// load on both the full and the delta path, localize byte-identically to
// the plain images, and re-encode to the plain images.
func TestOldImageQuantSectionsIgnored(t *testing.T) {
	data := synth.GenerateSample(3)
	app, baseApp, baseImg := deltaFixture(t, 3)
	fullImg, err := EncodeSnapshot(NewSnapshot(), app)
	if err != nil {
		t.Fatal(err)
	}
	fsn, fApp, err := LoadSnapshotBytes(fullImg)
	if err != nil {
		t.Fatal(err)
	}
	want := NewWithSnapshot(fsn)
	reviews := data.Reviews
	if len(reviews) > 10 {
		reviews = reviews[:10]
	}

	for _, rs := range retiredFeatures {
		oldFull := withReservedSections(t, fullImg, len(app.Releases), rs)
		oldBase := withReservedSections(t, baseImg, len(baseApp.Releases), rs)
		oldDelta, err := EncodeSnapshotDelta(NewSnapshot(), app, oldBase)
		if err != nil {
			t.Fatalf("%s: encode delta against an old base: %v", rs.name, err)
		}
		oldDelta = withReservedSections(t, oldDelta, len(app.Releases), rs)

		osn, oApp, err := LoadSnapshotBytes(oldFull)
		if err != nil {
			t.Fatalf("%s: load old full image: %v", rs.name, err)
		}
		dsn, dApp, err := LoadSnapshotDeltaImages(oldDelta, oldBase)
		if err != nil {
			t.Fatalf("%s: load old delta image: %v", rs.name, err)
		}

		for _, tc := range []struct {
			name string
			sn   *Snapshot
			app  *apk.App
		}{{"full", osn, oApp}, {"delta", dsn, dApp}} {
			if re, err := EncodeSnapshot(tc.sn, tc.app); err != nil || string(re) != string(fullImg) {
				t.Fatalf("%s %s: re-encoding an old image is not the plain image (err %v)", rs.name, tc.name, err)
			}
			s := NewWithSnapshot(tc.sn)
			for i, rv := range reviews {
				_, wantTr := want.LocalizeReviewTraced(fApp, rv.Text, rv.PublishedAt)
				_, gotTr := s.LocalizeReviewTraced(tc.app, rv.Text, rv.PublishedAt)
				wj, err1 := wantTr.JSON()
				gj, err2 := gotTr.JSON()
				if err1 != nil || err2 != nil {
					t.Fatalf("trace JSON: %v / %v", err1, err2)
				}
				if string(wj) != string(gj) {
					t.Fatalf("%s %s path review %d: old image localizes differently", rs.name, tc.name, i)
				}
				w := want.LocalizeReview(fApp, rv.Text, rv.PublishedAt)
				g := s.LocalizeReview(tc.app, rv.Text, rv.PublishedAt)
				if !reflect.DeepEqual(g.Mappings, w.Mappings) || !reflect.DeepEqual(g.Ranked, w.Ranked) {
					t.Fatalf("%s %s path review %d: old image mappings differ", rs.name, tc.name, i)
				}
			}
		}
	}
}
