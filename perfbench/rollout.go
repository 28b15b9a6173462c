package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/core"
	"reviewsolver/internal/serve"
	"reviewsolver/internal/snapfile"
	"reviewsolver/internal/synth"
)

// liveVersion is the registry version each bump hot-swaps: every app has
// one rolled-out version resident beside its base, however many bumps ran.
const liveVersion = "live"

// bump is one version bump: the app as of release i, rolled out as a delta
// image against the app's resident full base image (release 0).
type bump struct {
	pkg  string
	view *apk.App // the padded app with releases 0..i
	text string   // the review the first answer localizes
	body []byte
}

// rollout ships version bumps into a live daemon: compile the new release
// as snapshotc -base does, hot-swap it into the registry, and ask the new
// version its first question.
type rollout struct {
	b      *bench
	dm     *daemon
	base   map[string][]byte // pkg → full base image
	bumps  []bump
	imgKB  []float64
	passes int
}

// viewOf is app as of its first n releases.
func viewOf(app *apk.App, n int) *apk.App {
	return &apk.App{Package: app.Package, Name: app.Name, Releases: app.Releases[:n]}
}

func newRollout(b *bench) (runner, error) {
	b.train()
	w := &rollout{b: b, base: map[string][]byte{}}
	rng := rand.New(rand.NewSource(b.seed))
	var apps []*apk.App
	for _, data := range b.table6(b.seed) {
		app := synth.InflateApp(data.App, b.size.inflate)
		apps = append(apps, app)
		errs := data.ErrorReviews()
		for i := 1; i < len(app.Releases); i++ {
			bp := bump{pkg: app.Package, view: viewOf(app, i+1), text: errs[rng.Intn(len(errs))].Text}
			body, err := json.Marshal(serve.LocalizeRequest{App: bp.pkg, Version: liveVersion, Review: bp.text})
			if err != nil {
				return nil, err
			}
			bp.body = body
			w.bumps = append(w.bumps, bp)
		}
	}
	for _, app := range apps {
		img, err := core.EncodeSnapshot(core.NewSnapshot(), viewOf(app, 1))
		if err != nil {
			return nil, fmt.Errorf("compile base %s: %w", app.Package, err)
		}
		w.base[app.Package] = img
	}
	dm, err := b.bootDaemon()
	if err != nil {
		return nil, err
	}
	w.dm = dm
	reg := dm.d.Registry()
	for _, app := range apps {
		reg.RegisterBytes(app.Package, app.Releases[0].Version, w.base[app.Package])
		// A delta image loads only against a resident base: lease each
		// base once so it is loaded before the first bump arrives.
		l, err := reg.Acquire(context.Background(), app.Package, "")
		if err != nil {
			return nil, fmt.Errorf("load base %s: %w", app.Package, err)
		}
		l.Release()
	}
	return w, nil
}

func (w *rollout) prepare() error { return nil }

// compile builds the bump's release as snapshotc -base does: a fresh
// snapshot extracted release by release through the delta engine, encoded
// as a delta against the base image.
func (w *rollout) compile(bp *bump) (*core.Snapshot, []byte, error) {
	sn := core.NewSnapshot()
	sn.PrecomputeDelta(bp.view)
	img, err := core.EncodeSnapshotDelta(sn, bp.view, w.base[bp.pkg])
	return sn, img, err
}

// verify checks a first answer against the in-memory build of the release.
func (w *rollout) verify(bp *bump, sn *core.Snapshot, status int, body []byte, err error) {
	if err != nil || status != http.StatusOK {
		w.b.check(false)
		return
	}
	when := bp.view.Latest().ReleasedAt.AddDate(0, 0, 1) // reviewd's default
	res := core.NewWithSnapshot(sn, w.b.classifier()).LocalizeReview(bp.view, bp.text, when)
	want, werr := expectedBody(bp.pkg, liveVersion, bp.text, res)
	w.b.check(werr == nil && bytes.Equal(body, want))
}

// pass runs every bump once, in a seeded order that changes per pass.
func (w *rollout) pass() pass {
	var p pass
	reg := w.dm.d.Registry()
	order := rand.New(rand.NewSource(w.b.seed + int64(w.passes))).Perm(len(w.bumps))
	w.passes++
	for _, k := range order {
		bp := &w.bumps[k]
		start := time.Now()
		sn, img, err := w.compile(bp)
		var (
			status int
			body   []byte
		)
		if err == nil {
			reg.RegisterBytes(bp.pkg, liveVersion, img)
			status, body, err = w.dm.post(w.dm.clients[0], bp.body)
		}
		elapsed := time.Since(start)
		p.busy += elapsed.Seconds()
		p.lat = append(p.lat, float64(elapsed)/float64(time.Millisecond))
		p.work++
		w.imgKB = append(w.imgKB, float64(len(img))/kb)
		w.verify(bp, sn, status, body, err)
	}
	return p
}

func (w *rollout) unit() (string, float64) { return "version bumps", 0.9 }

func (w *rollout) traced() (map[string]float64, error) {
	layers := map[string]float64{}
	ctx := context.Background()
	reg := w.dm.d.Registry()
	t := w.b.tr

	type loadedBase struct {
		sn  *core.Snapshot
		app *apk.App
		crc uint32
	}
	bases := map[string]loadedBase{}
	for pkg, img := range w.base {
		sn, app, err := core.LoadSnapshotBytes(img, w.b.classifier())
		if err != nil {
			return nil, fmt.Errorf("load base %s: %w", pkg, err)
		}
		bases[pkg] = loadedBase{sn, app, snapfile.Checksum(img)}
	}

	runtimeDelta(layers, len(w.bumps), func() { w.pass() })

	var reused, fresh int
	for k := range w.bumps {
		bp := &w.bumps[k]
		op := int32(2_000_000 + k)
		root := t.begin("rollout.bump", -1, op)
		c := t.begin("rollout.compile", root, op)
		sn := core.NewSnapshot()
		sn.PrecomputeDelta(bp.view)
		t.finish(c)
		c = t.begin("snapfile.encode", root, op)
		img, err := core.EncodeSnapshotDelta(sn, bp.view, w.base[bp.pkg])
		t.finish(c)
		if err != nil {
			return nil, err
		}
		c = t.begin("registry.swap", root, op)
		reg.RegisterBytes(bp.pkg, liveVersion, img)
		l, err := reg.Acquire(ctx, bp.pkg, liveVersion)
		if err == nil {
			l.Release()
		}
		t.finish(c)
		c = t.begin("rollout.first_answer", root, op)
		status, body, perr := w.dm.post(w.dm.clients[0], bp.body)
		t.finish(c)
		t.finish(root)
		if err == nil {
			err = perr
		}
		w.verify(bp, sn, status, body, err)

		// Layer probes outside the bump: the new release's full and delta
		// extraction, and the delta load the registry performs.
		s := core.NewWithSnapshot(sn)
		n := len(bp.view.Releases)
		c = t.begin("static.full", -1, op)
		s.ExtractStatic(bp.view.Releases[n-1])
		t.finish(c)
		prev := sn.StaticFor(bp.view.Releases[n-2])
		c = t.begin("static.delta", -1, op)
		_, st := s.ExtractStaticDelta(prev, bp.view.Releases[n-1])
		t.finish(c)
		reused, fresh = reused+st.RowsReused(), fresh+st.RowsFresh()
		base := bases[bp.pkg]
		c = t.begin("snapfile.load", -1, op)
		_, _, err = core.LoadSnapshotDeltaBytes(img, base.sn, base.app, base.crc, w.b.classifier())
		t.finish(c)
		w.b.check(err == nil)
	}
	layers["static.full_ms"] = durMedianMs(t.durations("static.full"))
	layers["static.delta_ms"] = durMedianMs(t.durations("static.delta"))
	layers["static.rows_reused_share"] = ratio(float64(reused), float64(fresh))
	layers["snapfile.encode_ms"] = durMedianMs(t.durations("snapfile.encode"))
	layers["snapfile.load_ms"] = durMedianMs(t.durations("snapfile.load"))
	layers["snapfile.image_kb"] = median(w.imgKB)
	layers["registry.swap_ms"] = durMedianMs(t.durations("registry.swap"))

	// The pipeline replay localizes each bump's first-answer review on the
	// in-memory build of its release.
	jobs := make([]replayJob, len(w.bumps))
	for k := range w.bumps {
		bp := &w.bumps[k]
		when := bp.view.Latest().ReleasedAt.AddDate(0, 0, 1)
		jobs[k] = replayJob{
			app: bp.view, reviews: []core.ReviewInput{{Text: bp.text, PublishedAt: when}},
			snap: func() *core.Snapshot {
				sn := core.NewSnapshot()
				sn.PrecomputeDelta(bp.view)
				return sn
			},
			opts: []core.Option{w.b.classifier()},
		}
	}
	w.b.replay(jobs, layers)
	return layers, nil
}

func (w *rollout) notes() []string {
	return []string{fmt.Sprintf("%d version bumps per pass (apps padded x%d); median delta image %.1f KB",
		len(w.bumps), w.b.size.inflate, median(w.imgKB))}
}

func (w *rollout) close() { w.dm.close() }
