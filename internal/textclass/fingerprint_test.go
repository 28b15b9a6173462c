package textclass_test

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"

	"reviewsolver/internal/synth"
	"reviewsolver/internal/textclass"
)

// TestBoostedTreesFingerprint pins the ensemble trained on
// synth.TrainingCorpus(1) bit for bit. The value was computed with the
// map-probing trainer that the presence-bitset trainer replaced; any change
// to a split, a leaf response or the bias changes it. It is an amd64 value:
// compilers for arm64, ppc64 and s390x fuse x*y+z into one rounding, which
// moves the residuals' last bits.
func TestBoostedTreesFingerprint(t *testing.T) {
	const want = 0x7acbd6fca4e45091
	vec, c := textclass.TrainOn(synth.TrainingCorpus(1),
		func() textclass.Classifier { return textclass.NewBoostedTrees() })
	bt := c.(*textclass.BoostedTrees)
	if got := textclass.Fingerprint(bt); runtime.GOARCH == "amd64" && got != want {
		t.Fatalf("ensemble fingerprint = %#x, want %#x", got, want)
	}
	// Held-out reviews: Predict is the 0.5 cut of Score.
	for _, d := range synth.TrainingCorpus(2) {
		x := vec.Transform(d.Text)
		if bt.Predict(x) != (bt.Score(x) >= 0.5) {
			t.Fatalf("Predict(%q) = %v disagrees with Score %v", d.Text, bt.Predict(x), bt.Score(x))
		}
	}
}

// TestNegationTokensLongSentence pins the negation filter's token streams on
// negation-heavy run-on sentences, where every neg dependency used to rescan
// the whole dependency list. The hashes were computed with that quadratic
// filter.
func TestNegationTokensLongSentence(t *testing.T) {
	v := textclass.NewVectorizer()
	cases := []struct {
		text string
		n    int
		hash uint64
	}{
		// "not ... really serious bugs" is out of the three-token fallback's
		// reach: only the dependency path drops it.
		{strings.Repeat("the app does not contain any really serious bugs and it is not crashing but there is no error, not even a bug and I never saw a crash ", 40) + "not working bug",
			921, 0xaab1d174f697e460},
		{"the app does not contain any really serious bugs", 7, 0xd0e26bc5cd01e231},
		{"the app does not contain any bugs", 5, 0x5721e5cc98f32eae},
		{"no bugs, zero errors, never a crash", 3, 0xe353f7e126172ef7},
		{strings.Repeat("not ", 300) + "bug", 297, 0x12d3733fc21cd10e},
	}
	for i, c := range cases {
		toks := textclass.TokensOf(v, c.text)
		h := fnv.New64a()
		for _, tok := range toks {
			fmt.Fprintf(h, "%s\x00", tok)
		}
		if len(toks) != c.n || h.Sum64() != c.hash {
			t.Errorf("case %d: %d tokens hash %#x, want %d tokens hash %#x", i, len(toks), h.Sum64(), c.n, c.hash)
		}
	}
}
