package synth_test

import (
	"testing"

	"reviewsolver/internal/core"
	"reviewsolver/internal/synth"
)

// deltaBenchCopies pads the sample app to serve scale (~280 classes): real
// APKs carry hundreds of vendored/generated classes a version bump never
// touches, and that untouched bulk is what the reuse path gets to skip
// re-embedding. The diff between the last two releases stays the size the
// real cadence produces (InflateApp freezes the padding across releases).
const deltaBenchCopies = 16

// BenchmarkDeltaRebuild measures the release-cadence rebuild: when a new
// version ships, the serving snapshot needs the latest release's §3.3
// static extraction. "cold" is a from-scratch ExtractStatic; "reuse" is
// core.ExtractStaticDelta, the same extraction taking the predecessor's
// name-keyed method and API embeddings instead of re-embedding them.
func BenchmarkDeltaRebuild(b *testing.B) {
	app := synth.InflateApp(synth.GenerateSample(1).App, deltaBenchCopies)
	n := len(app.Releases)
	if n < 2 {
		b.Skip("sample app has a single release")
	}
	prevR, lastR := app.Releases[n-2], app.Releases[n-1]
	s := core.New()
	prev := s.StaticFor(prevR)

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if s.ExtractStatic(lastR) == nil {
				b.Fatal("nil extraction")
			}
		}
	})
	b.Run("reuse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if info, _ := s.ExtractStaticDelta(prev, lastR); info == nil {
				b.Fatal("nil extraction")
			}
		}
	})
}
