package main

import (
	"fmt"

	"reviewsolver/internal/core"
)

// triage is batch localization as reviewsolver -triage and the experiment
// runner do it: each app's generated corpus streams once through a fresh
// pool (cold front-end caches, every release already extracted).
type triage struct {
	b    *bench
	jobs []*corpusJob
}

func newTriage(b *bench) (runner, error) {
	b.train()
	t := &triage{b: b}
	for s := 0; s < b.size.triageSeeds; s++ {
		for _, data := range b.table6(b.seed + int64(s)) {
			reviews := make([]core.ReviewInput, len(data.Reviews))
			for i, r := range data.Reviews {
				reviews[i] = core.ReviewInput{Text: r.Text, PublishedAt: r.PublishedAt}
			}
			t.jobs = append(t.jobs, newCorpusJob(data.App, reviews))
		}
	}
	return t, nil
}

func (t *triage) prepare() error {
	t.b.computeReferences(t.jobs)
	return nil
}

func reviewCount(j *corpusJob) float64 { return float64(len(j.reviews)) }

func (t *triage) pass() pass {
	return t.b.streamPass(t.jobs, t.b.freshPools(t.jobs), reviewCount)
}

func (t *triage) unit() (string, float64) { return "reviews", 0.99 }

func (t *triage) traced() (map[string]float64, error) {
	return t.b.tracedStream(t.jobs, reviewCount)
}

func (t *triage) notes() []string {
	n := 0
	for _, j := range t.jobs {
		n += len(j.reviews)
	}
	return []string{fmt.Sprintf("%d reviews in %d app corpora per pass", n, len(t.jobs))}
}

func (t *triage) close() {}

// tracedStream is the traced run shared by triage and longreview: one pool
// pass for the runtime counters and the pool's wall time, then the
// sequential span replay of the same reviews.
func (b *bench) tracedStream(jobs []*corpusJob, work func(*corpusJob) float64) (map[string]float64, error) {
	layers := map[string]float64{}
	ops := 0
	for _, j := range jobs {
		ops += len(j.reviews)
	}
	pools := b.freshPools(jobs)
	var p pass
	runtimeDelta(layers, ops, func() { p = b.streamPass(jobs, pools, work) })

	rjobs := make([]replayJob, len(jobs))
	for i, j := range jobs {
		j := j
		rjobs[i] = replayJob{
			app: j.app, reviews: j.reviews, want: j.want,
			snap: func() *core.Snapshot { return b.freshSnapshot(j.app) },
		}
	}
	plainNs := b.replay(rjobs, layers)
	layers["pool.parallel_efficiency"] = float64(plainNs) / 1e9 / (float64(pools[0].Size()) * p.busy)
	return layers, nil
}
