package obs

import (
	"bytes"
	"strings"
	"testing"
)

func validTrace() *ReviewTrace {
	tr := NewReviewTrace("cannot fetch mail")
	tr.IsError = true
	tr.Release = "1.7"
	tr.AddStage("classify", "review", 0)
	tr.AddStage("app_specific", "localize", 1)
	tr.AddMatch(MatchTrace{
		Phrase: "fetch mail", Class: "com.app.MailFetcher", Method: "fetchMail",
		Stage: "app_specific", Source: "method name",
		Evidence: "method name fetchMail", Similarity: 0.97,
	})
	tr.AddScan(ScanTrace{
		Stage: "app_specific", Matrix: "method_phrases", Phrase: "fetch mail",
		Rows: 45, Evaluated: 45, Matched: 1,
	})
	tr.Ranked = []RankedTrace{{
		Rank: 1, Class: "com.app.MailFetcher", Importance: 1,
		Matches: tr.MatchesFor("com.app.MailFetcher"),
	}}
	return tr
}

// TestTraceJSONGolden pins the artifact encoding end to end: field names,
// ordering, and the byte-for-byte reproducibility the explain gate depends
// on.
func TestTraceJSONGolden(t *testing.T) {
	tr := validTrace()
	a, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same trace encoded to different bytes")
	}
	if err := ValidateTraceJSON(a); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	for _, want := range []string{
		`"schema_version": 1`,
		`"review": "cannot fetch mail"`,
		`"source": "method name"`,
		`"similarity": 0.97`,
		`"evaluated": 45`,
		`"rank": 1`,
	} {
		if !bytes.Contains(a, []byte(want)) {
			t.Errorf("encoded trace missing %s:\n%s", want, a)
		}
	}
}

func TestValidateTraceJSONRejections(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*ReviewTrace)
		wantErr string
	}{
		{"wrong schema", func(tr *ReviewTrace) { tr.SchemaVersion = 99 }, "schema_version"},
		{"empty review", func(tr *ReviewTrace) { tr.Review = "" }, "empty review"},
		{"match without source", func(tr *ReviewTrace) { tr.Matches[0].Source = "" }, "no information source"},
		{"match without class", func(tr *ReviewTrace) { tr.Matches[0].Class = "" }, "no class"},
		{"similarity out of range", func(tr *ReviewTrace) { tr.Matches[0].Similarity = 1.5 }, "out of [0, 1]"},
		{"scan over rows", func(tr *ReviewTrace) { tr.Scans[0].Evaluated = 100 }, "> rows"},
		{"scan matched over evaluated", func(tr *ReviewTrace) { tr.Scans[0].Matched = 46 }, "matched 46 > evaluated"},
		{"rank out of order", func(tr *ReviewTrace) { tr.Ranked[0].Rank = 3 }, "has rank 3"},
		{"ranked without matches", func(tr *ReviewTrace) { tr.Ranked[0].Matches = nil }, "references no matches"},
		{"ranked match out of range", func(tr *ReviewTrace) { tr.Ranked[0].Matches = []int{5} }, "references match 5"},
		{"ranked match wrong class", func(tr *ReviewTrace) { tr.Ranked[0].Class = "com.other.Cls" }, "naming class"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := validTrace()
			tc.mutate(tr)
			data, err := tr.JSON()
			if err != nil {
				t.Fatal(err)
			}
			err = ValidateTraceJSON(data)
			if err == nil {
				t.Fatal("mutated trace validated cleanly")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
	if err := ValidateTraceJSON([]byte("{")); err == nil {
		t.Error("malformed JSON validated cleanly")
	}
}

// TestValidateAllowsEarlyExitScans: AnyAtLeastCount-style scans stop at the
// first hit, so evaluated may undercount rows — that must validate.
func TestValidateAllowsEarlyExitScans(t *testing.T) {
	tr := validTrace()
	tr.Scans[0] = ScanTrace{
		Stage: "api_uri_intent", Matrix: "catalog", Phrase: "fetch mail",
		Rows: 300, Evaluated: 2, Matched: 1,
	}
	data, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTraceJSON(data); err != nil {
		t.Fatalf("early-exit scan rejected: %v", err)
	}
}
