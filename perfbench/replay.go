package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/core"
	"reviewsolver/internal/ctxinfo"
	"reviewsolver/internal/obs"
)

// span is one timed call into a layer. Spans stay in memory during the run
// and are written out when it ends.
type span struct {
	name       string
	parent     int32 // index of the causing span, -1 for a root
	op         int32 // operation (review, request, bump) the span serves
	start, end int64 // ns since the tracer's epoch
}

type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent, op int32) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, op: op, start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) finish(id int32) { t.spans[id].end = int64(time.Since(t.epoch)) }

// self sums, per span name, each span's duration minus the part of it its
// child spans cover.
func (t *tracer) self() map[string]int64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]int64{}
	for i, s := range t.spans {
		out[s.name] += s.end - s.start - child[i]
	}
	return out
}

// durations lists the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, time.Duration(s.end-s.start))
		}
	}
	return out
}

// write saves the spans as CSV: id,parent,op,name,start_ns,end_ns.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,op,name,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i, s.parent, s.op, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// saveSpans writes a traced run's spans under the bench's span directory,
// replacing the workload's previous run.
func (b *bench) saveSpans(workload string) error {
	if b.spanDir == "" {
		return nil
	}
	return b.tr.write(filepath.Join(b.spanDir, workload+".csv"))
}

// stageCtx maps each localizer stage to the context LocalizeByContext takes.
var stageCtx = map[string]ctxinfo.Type{
	"app_specific":   ctxinfo.AppSpecificTask,
	"gui":            ctxinfo.GUI,
	"error_message":  ctxinfo.ErrorMessage,
	"opening_app":    ctxinfo.OpeningApp,
	"registration":   ctxinfo.RegisteringAccount,
	"api_uri_intent": ctxinfo.APIURIIntent,
	"general_task":   ctxinfo.GeneralTask,
	"exception":      ctxinfo.Exception,
	"update":         ctxinfo.UpdatingApp,
}

// replayJob is one app's reviews for the traced replay.
type replayJob struct {
	app     *apk.App
	reviews []core.ReviewInput
	want    []string              // reference rankedKey per review; nil skips that check
	snap    func() *core.Snapshot // the snapshot the pipeline runs on
	opts    []core.Option         // solver options on top of the snapshot's
}

// replay runs every review twice, sequentially: once through
// Solver.LocalizeReview, and once through the pipeline's public layer calls
// in pipeline order under spans. The replay must reproduce LocalizeReview's
// ranking for every review; each disagreement is a failed operation. The
// per-layer metrics go into layers; the plain pass's time is returned.
func (b *bench) replay(jobs []replayJob, layers map[string]float64) (plainNs int64) {
	plain := make([][][]core.RankedClass, len(jobs))
	for ji, j := range jobs {
		s := core.NewWithSnapshot(j.snap(), j.opts...)
		plain[ji] = make([][]core.RankedClass, len(j.reviews))
		start := time.Now()
		for i, r := range j.reviews {
			plain[ji][i] = s.LocalizeReview(j.app, r.Text, r.PublishedAt).Ranked
		}
		plainNs += int64(time.Since(start))
	}

	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, nil)
	mappings := map[string]int{}
	var (
		reviews, errReviews int
		errBytes            int
		methodScan          [3]int // pruned, evaluated, matched
		catalogScan         [3]int
	)
	t := b.tr
	op := int32(0)
	for ji, j := range jobs {
		s := core.NewWithSnapshot(j.snap(), append(append([]core.Option(nil), j.opts...), core.WithObserver(rec))...)
		type probe struct {
			info    *core.StaticInfo
			phrases []string
		}
		var probes []probe
		for i, r := range j.reviews {
			ranked, info, ra := replayOne(t, s, j.app, r, op, mappings)
			op++
			reviews++
			if ra != nil {
				errReviews++
				errBytes += len(r.Text)
				p := probe{info: info}
				for _, vp := range ra.VerbPhrases {
					p.phrases = append(p.phrases, vp.String())
				}
				probes = append(probes, p)
			}
			b.check(reflect.DeepEqual(ranked, plain[ji][i]))
			if j.want != nil {
				b.check(rankedKey(&core.Result{Ranked: ranked}) == j.want[i])
			}
		}
		// The scan probes run after the job so that they do not warm the
		// word model for reviews still to be replayed.
		for _, p := range probes {
			for _, ph := range p.phrases {
				pr, ev, ma := s.KernelScanStats(p.info, ph)
				methodScan = [3]int{methodScan[0] + pr, methodScan[1] + ev, methodScan[2] + ma}
				pr, ev, ma = s.CatalogScanStats(ph)
				catalogScan = [3]int{catalogScan[0] + pr, catalogScan[1] + ev, catalogScan[2] + ma}
			}
		}
	}

	self := t.self()
	var tracedNs int64 // the replay's summed per-review span time
	for _, d := range t.durations("review") {
		tracedNs += int64(d)
	}
	wall := float64(tracedNs)
	share := func(name string) float64 { return float64(self[name]) / wall }
	perErr := func(name string) float64 { return float64(self[name]) / float64(max(errReviews, 1)) }

	layers["textclass.ns_per_review"] = float64(self["textclass"]) / float64(reviews)
	layers["textclass.share"] = share("textclass")
	layers["textclass.error_share"] = float64(errReviews) / float64(reviews)
	layers["analyze.ns_per_review"] = perErr("analyze")
	if errBytes > 0 {
		layers["analyze.ns_per_kb"] = float64(self["analyze"]) / (float64(errBytes) / kb)
	}
	layers["analyze.share"] = share("analyze")
	snap := reg.Snapshot()
	layers["analyze.sentence_hit_ratio"] = ratio(snap["analysis_cache_hits_total"], snap["analysis_cache_misses_total"])
	layers["analyze.phrase_hit_ratio"] = ratio(snap["phrase_cache_hits_total"], snap["phrase_cache_misses_total"])
	for _, st := range locStages {
		layers["loc."+st+".ns_per_review"] = perErr("loc." + st)
		layers["loc."+st+".share"] = share("loc." + st)
		layers["loc."+st+".mappings"] = float64(mappings[st])
	}
	layers["rank.ns_per_review"] = perErr("rank")
	layers["rank.share"] = share("rank")
	layers["other.share"] = share("review") + share("static")
	layers["scan.method.pruned_share"] = ratio(float64(methodScan[0]), float64(methodScan[1]))
	layers["scan.catalog.pruned_share"] = ratio(float64(catalogScan[0]), float64(catalogScan[1]))
	layers["scan.evaluated"] = float64(methodScan[1] + catalogScan[1])
	layers["scan.matched"] = float64(methodScan[2] + catalogScan[2])
	layers["trace.overhead_share"] = float64(tracedNs-plainNs) / float64(plainNs)
	return plainNs
}

// replayOne replays one review through the pipeline's public layer calls in
// LocalizeReview's order: classify, pick the release, static lookup,
// analyze, the eight localizers, the update localizer only when nothing
// else mapped (LocalizeByContext gives it no existing mappings, so running
// it unconditionally would overcount), dedup on the pipeline's key, rank.
// It returns the ranking, and for a function-error review the release's
// static information and the analysis.
func replayOne(t *tracer, s *core.Solver, app *apk.App, r core.ReviewInput, op int32, mappings map[string]int) ([]core.RankedClass, *core.StaticInfo, *core.ReviewAnalysis) {
	root := t.begin("review", -1, op)
	defer t.finish(root)
	c := t.begin("textclass", root, op)
	isErr := s.IsErrorReview(r.Text)
	t.finish(c)
	if !isErr {
		return nil, nil, nil
	}
	current, previous, ok := app.ReleaseBefore(r.PublishedAt)
	if !ok {
		if len(app.Releases) == 0 {
			return nil, nil, nil
		}
		current, previous = app.Releases[0], nil
	}
	c = t.begin("static", root, op)
	info := s.StaticFor(current)
	t.finish(c)
	c = t.begin("analyze", root, op)
	ra := s.AnalyzeReview(r.Text)
	t.finish(c)

	var out []core.Mapping
	for _, st := range locStages {
		if st == "update" && len(out) > 0 {
			continue
		}
		c = t.begin("loc."+st, root, op)
		ms := s.LocalizeByContext(stageCtx[st], ra, info, previous, current)
		t.finish(c)
		mappings[st] += len(ms)
		out = append(out, ms...)
	}
	out = dedup(out)
	c = t.begin("rank", root, op)
	ranked := core.RankClasses(out, info.Graph, core.TopN)
	t.finish(c)
	return ranked, info, ra
}

// dedup drops repeated mappings on the key the pipeline dedups on.
func dedup(ms []core.Mapping) []core.Mapping {
	seen := make(map[string]struct{}, len(ms))
	out := ms[:0]
	for _, m := range ms {
		key := m.Phrase + "\x00" + m.Class + "\x00" + m.Method + "\x00" + m.Context.String()
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, m)
	}
	return out
}

// ratio returns a/(a+b), 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}
