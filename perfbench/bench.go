package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/core"
	"reviewsolver/internal/synth"
	"reviewsolver/internal/textclass"
)

const (
	mb = 1 << 20
	kb = 1 << 10
)

// size scales a run. fullSize is what the benchmark measures; the self-test
// runs every workload at a tiny size.
type size struct {
	apps        int // Table-6 apps per generated corpus (0 = all 18)
	trainDocs   int // classifier training documents per class (0 = all 700)
	triageSeeds int // generated corpora per triage job set
	longReviews int // run-on reviews per longreview set
	longMaxKB   int // longest run-on review
	inflate     int // synth.InflateApp padding for rollout
	setups      int // set-ups per untraced run; setup_s is their median
	sample      int // serve requests timed one by one in the traced run (0 = all)
}

var fullSize = size{triageSeeds: 3, longReviews: 200, longMaxKB: 16, inflate: 16, setups: 2, sample: 2000}

// bench is the state one run shares across its workload.
type bench struct {
	seed    int64
	seconds float64
	size    size
	spanDir string  // where a traced run writes its spans ("" skips writing)
	tr      *tracer // the traced run's spans

	vec    *textclass.Vectorizer
	clf    textclass.Classifier
	trainS float64

	attempted, failed atomic.Int64
}

// check counts one checked output.
func (b *bench) check(ok bool) {
	b.attempted.Add(1)
	if !ok {
		b.failed.Add(1)
	}
}

// train fits the boosted-tree function-error classifier on the workload
// seed's training corpus, as reviewd and reviewsolver do.
func (b *bench) train() {
	docs := synth.TrainingCorpus(b.seed)
	if n := b.size.trainDocs; n > 0 {
		half := len(docs) / 2 // the corpus is all positives, then all negatives
		docs = append(docs[:n:n], docs[half:half+n]...)
	}
	start := time.Now()
	b.vec, b.clf = textclass.TrainOn(docs, func() textclass.Classifier { return textclass.NewBoostedTrees() })
	b.trainS = time.Since(start).Seconds()
}

// classifier is the option installing the trained classifier.
func (b *bench) classifier() core.Option { return core.WithClassifier(b.vec, b.clf) }

// table6 generates the Table-6 apps and corpora at a seed.
func (b *bench) table6(seed int64) []*synth.AppData {
	apps := synth.GenerateTable6(seed)
	if n := b.size.apps; n > 0 && n < len(apps) {
		apps = apps[:n]
	}
	return apps
}

// freshSnapshot builds a snapshot with cold front-end caches and every
// release of app extracted, as reviewsolver -triage does before a job.
func (b *bench) freshSnapshot(app *apk.App) *core.Snapshot {
	sn := core.NewSnapshot(b.classifier())
	sn.PrecomputeApp(app)
	return sn
}

// runner is one workload after set-up.
type runner interface {
	// prepare computes the reference outputs and warms what a long-lived
	// process has warm. It is not part of setup_s.
	prepare() error
	// pass runs the workload's inputs once and times it.
	pass() pass
	// unit names one unit of pass work and the tail quantile reported.
	unit() (work string, tailQ float64)
	// traced runs the per-layer replay and returns the per-layer metrics.
	traced() (map[string]float64, error)
	// notes are extra report lines.
	notes() []string
	close()
}

// workload sets a workload up from scratch, classifier training included.
type workload func(b *bench) (runner, error)

var workloads = map[string]workload{
	"triage":     newTriage,
	"serve":      newServe,
	"longreview": newLongReview,
	"rollout":    newRollout,
}

func timedSetup(w workload, b *bench) (runner, float64, error) {
	start := time.Now()
	r, err := w(b)
	return r, time.Since(start).Seconds(), err
}

// pass is one timed pass over a workload's inputs.
type pass struct {
	work float64   // completed work units (throughput numerator)
	busy float64   // timed seconds (throughput denominator)
	lat  []float64 // per-operation latency, ms
}

// corpusJob is one app's review stream with its reference rankings.
type corpusJob struct {
	app     *apk.App
	reviews []core.ReviewInput
	want    []string // rankedKey of the sequential reference, per review
	bytes   int      // total review text bytes
}

func newCorpusJob(app *apk.App, reviews []core.ReviewInput) *corpusJob {
	j := &corpusJob{app: app, reviews: reviews}
	for _, r := range reviews {
		j.bytes += len(r.Text)
	}
	return j
}

// rankedKey is the comparable form of a result's ranked class names.
func rankedKey(res *core.Result) string {
	return strings.Join(res.RankedClassNames(), "\x00")
}

// computeReferences fills every job's want with a sequential
// core.NewWithSnapshot solver over a fresh snapshot, one job per CPU at a
// time.
func (b *bench) computeReferences(jobs []*corpusJob) {
	parallelEach(len(jobs), func(i int) {
		j := jobs[i]
		s := core.NewWithSnapshot(core.NewSnapshot(b.classifier()))
		j.want = make([]string, len(j.reviews))
		for k, r := range j.reviews {
			j.want[k] = rankedKey(s.LocalizeReview(j.app, r.Text, r.PublishedAt))
		}
	})
}

// parallelEach runs fn(0..n-1) on at most GOMAXPROCS goroutines and waits.
func parallelEach(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// stream pushes a job's reviews through the pool in a closed loop (the
// feeder blocks on the pool), checks every result against the reference,
// and appends each review's latency in ms — from the moment it is offered
// to the pool until its result comes out — to lat.
func (b *bench) stream(p *core.Pool, j *corpusJob, lat []float64) []float64 {
	in := make(chan core.ReviewInput)
	offered := make([]time.Time, len(j.reviews))
	go func() {
		for i, r := range j.reviews {
			offered[i] = time.Now()
			in <- r
		}
		close(in)
	}()
	for cr := range p.LocalizeCorpus(j.app, in) {
		lat = append(lat, msSince(offered[cr.Index]))
		b.check(rankedKey(cr.Result) == j.want[cr.Index])
	}
	return lat
}

// freshPools builds one pool per job over a fresh, precomputed snapshot.
func (b *bench) freshPools(jobs []*corpusJob) []*core.Pool {
	pools := make([]*core.Pool, len(jobs))
	for i, j := range jobs {
		pools[i] = core.NewPoolWithSnapshot(0, b.freshSnapshot(j.app))
	}
	return pools
}

// streamPass streams every job once through its pool and times only the
// streaming, not the pools' set-up.
func (b *bench) streamPass(jobs []*corpusJob, pools []*core.Pool, work func(*corpusJob) float64) pass {
	var p pass
	for i, j := range jobs {
		start := time.Now()
		p.lat = b.stream(pools[i], j, p.lat)
		p.busy += time.Since(start).Seconds()
		p.work += work(j)
	}
	return p
}

// --- statistics ---------------------------------------------------------------

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// beyond counts the samples above the nearest-rank q-quantile.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func durMedianMs(d []time.Duration) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x) / float64(time.Millisecond)
	}
	return median(v)
}

// heapSampler tracks the peak of live-plus-unswept heap object bytes.
type heapSampler struct {
	stopc chan struct{}
	done  chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan uint64)}
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-tick.C:
			case <-h.stopc:
				h.done <- peak
				return
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	return <-h.done
}

// runtimeDelta reports GC and allocation activity across fn, per op.
func runtimeDelta(layers map[string]float64, ops int, fn func()) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	layers["gc.cycles"] = float64(after.NumGC - before.NumGC)
	layers["gc.pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	if ops > 0 {
		layers["alloc_mb_per_1k_ops"] = float64(after.TotalAlloc-before.TotalAlloc) / mb / float64(ops) * 1000
	}
}
