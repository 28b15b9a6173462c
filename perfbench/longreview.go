package main

import (
	"fmt"
	"math/rand"
	"strings"

	"reviewsolver/internal/core"
	"reviewsolver/internal/synth"
)

// longReview streams run-on reviews of 1 KB up to longMaxKB through fresh
// pools. Each review joins seeded generated error reviews of one app with
// their sentence punctuation replaced, so it is one long sentence that no
// analysis cache holds: the front end does most of the work.
type longReview struct {
	b    *bench
	jobs []*corpusJob
	kb   float64 // review text per pass
}

func newLongReview(b *bench) (runner, error) {
	b.train()
	apps := b.table6(b.seed)
	rng := rand.New(rand.NewSource(b.seed))
	perApp := make([][]core.ReviewInput, len(apps))
	errs := make([][]synth.Review, len(apps))
	for i, data := range apps {
		errs[i] = data.ErrorReviews()
	}
	for k := 0; k < b.size.longReviews; k++ {
		ai := k % len(apps)
		target := kb + rng.Intn((b.size.longMaxKB-1)*kb+1)
		first := errs[ai][rng.Intn(len(errs[ai]))]
		var sb strings.Builder
		sb.WriteString(runOn(first.Text))
		for sb.Len() < target {
			sb.WriteString(", and ")
			sb.WriteString(runOn(errs[ai][rng.Intn(len(errs[ai]))].Text))
		}
		perApp[ai] = append(perApp[ai], core.ReviewInput{Text: sb.String(), PublishedAt: first.PublishedAt})
	}
	l := &longReview{b: b}
	for i, data := range apps {
		if len(perApp[i]) > 0 {
			j := newCorpusJob(data.App, perApp[i])
			l.jobs = append(l.jobs, j)
			l.kb += float64(j.bytes) / kb
		}
	}
	return l, nil
}

// runOn replaces sentence punctuation so the text never ends a sentence.
func runOn(text string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '.', '!', '?':
			return ','
		}
		return r
	}, text)
}

func (l *longReview) prepare() error {
	l.b.computeReferences(l.jobs)
	return nil
}

func textKB(j *corpusJob) float64 { return float64(j.bytes) / kb }

func (l *longReview) pass() pass {
	return l.b.streamPass(l.jobs, l.b.freshPools(l.jobs), textKB)
}

func (l *longReview) unit() (string, float64) { return "KB of review text", 0.95 }

func (l *longReview) traced() (map[string]float64, error) {
	return l.b.tracedStream(l.jobs, textKB)
}

func (l *longReview) notes() []string {
	return []string{fmt.Sprintf("%d run-on reviews, %.0f KB per pass, over %d apps",
		l.b.size.longReviews, l.kb, len(l.jobs))}
}

func (l *longReview) close() {}
