package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/core"
	"reviewsolver/internal/obs"
	"reviewsolver/internal/serve"
	"reviewsolver/internal/synth"
)

// conns is the number of keep-alive client connections, one per CPU of the
// 2-CPU reference machine: the closed loop never has more requests in
// flight.
const conns = 2

// daemon is a reviewd daemon booted in process on a loopback port, with
// the client connections that drive it.
type daemon struct {
	d       *serve.Daemon
	url     string
	clients []*http.Client
}

// bootDaemon starts a daemon whose snapshot loads install the classifier.
func (b *bench) bootDaemon() (*daemon, error) {
	d := serve.NewDaemon(serve.Config{
		Metrics:     obs.NewRegistry(),
		LoadOptions: []core.Option{b.classifier()},
		Classify:    func(text string) bool { return b.clf.Predict(b.vec.Transform(text)) },
	})
	if err := d.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	dm := &daemon{d: d, url: "http://" + d.Addr() + "/v1/localize"}
	for i := 0; i < conns; i++ {
		dm.clients = append(dm.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}})
	}
	return dm, nil
}

// post sends one localize request and returns status and body.
func (dm *daemon) post(c *http.Client, body []byte) (int, []byte, error) {
	resp, err := c.Post(dm.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (dm *daemon) close() {
	for _, c := range dm.clients {
		c.CloseIdleConnections()
	}
	_ = dm.d.Close() // drains in-flight requests; nothing is left to report
}

// request is one single-review localize call and its expected answer.
type request struct {
	app  *apk.App
	pkg  string
	text string
	when time.Time
	body []byte
	want []byte // json.Marshal(LocalizeResponse) plus the trailing newline
}

// expectedBody is the byte-exact response reviewd must give for res.
func expectedBody(pkg, version, text string, res *core.Result) ([]byte, error) {
	data, err := json.Marshal(serve.LocalizeResponse{
		App: pkg, Version: version,
		Results: []serve.LocalizeResult{serve.ResultToJSON(text, res)},
	})
	return append(data, '\n'), err
}

// serveW is reviewd as a multi-tenant daemon: every Table-6 app registered,
// single-review requests interleaved across apps over keep-alive
// connections in a closed loop.
type serveW struct {
	b     *bench
	dm    *daemon
	apps  []*synth.AppData
	reqs  []request
	warmS float64
}

func newServe(b *bench) (runner, error) {
	b.train()
	w := &serveW{b: b, apps: b.table6(b.seed)}
	imgs := make([][]byte, len(w.apps))
	for i, data := range w.apps {
		img, err := core.EncodeSnapshot(core.NewSnapshot(), data.App)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", data.Info.Package, err)
		}
		imgs[i] = img
	}
	dm, err := b.bootDaemon()
	if err != nil {
		return nil, err
	}
	w.dm = dm
	for i, data := range w.apps {
		dm.d.Registry().RegisterBytes(data.Info.Package, data.App.Latest().Version, imgs[i])
	}
	return w, nil
}

// prepare builds the seeded request order with every response's expected
// bytes, then runs the untimed warm-up pass: a long-lived daemon has every
// snapshot loaded and its front-end caches warm.
func (w *serveW) prepare() error {
	for _, data := range w.apps {
		for _, r := range data.Reviews {
			w.reqs = append(w.reqs, request{app: data.App, pkg: data.Info.Package, text: r.Text, when: r.PublishedAt})
		}
	}
	rng := rand.New(rand.NewSource(w.b.seed))
	rng.Shuffle(len(w.reqs), func(i, j int) { w.reqs[i], w.reqs[j] = w.reqs[j], w.reqs[i] })
	byApp := map[string][]int{}
	for i, rq := range w.reqs {
		byApp[rq.pkg] = append(byApp[rq.pkg], i)
	}
	var (
		mu   sync.Mutex
		ferr error
	)
	parallelEach(len(w.apps), func(ai int) {
		data := w.apps[ai]
		s := core.NewWithSnapshot(core.NewSnapshot(w.b.classifier()))
		for _, i := range byApp[data.Info.Package] {
			rq := &w.reqs[i]
			var err error
			rq.body, rq.want, rq.when, err = encodeRequest(s, rq.app, rq.pkg, rq.text, rq.when)
			if err != nil {
				mu.Lock()
				ferr = err
				mu.Unlock()
			}
		}
	})
	if ferr != nil {
		return ferr
	}
	w.warmS = w.pass().busy
	return nil
}

// encodeRequest renders a request body and its expected response, computed
// by a direct solver on the in-memory build of the same app.
func encodeRequest(s *core.Solver, app *apk.App, pkg, text string, when time.Time) (body, want []byte, at time.Time, err error) {
	stamp := when.UTC().Format(time.RFC3339)
	at, err = time.Parse(time.RFC3339, stamp) // what the daemon will see
	if err != nil {
		return nil, nil, at, err
	}
	body, err = json.Marshal(serve.LocalizeRequest{App: pkg, Review: text, PublishedAt: stamp})
	if err != nil {
		return nil, nil, at, err
	}
	want, err = expectedBody(pkg, app.Latest().Version, text, s.LocalizeReview(app, text, at))
	return body, want, at, err
}

// pass sends every request once, in seeded order, over the connections in
// a closed loop, checking every answer.
func (w *serveW) pass() pass {
	var next atomic.Int64
	lats := make([][]float64, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(w.reqs); i = int(next.Add(1) - 1) {
				rq := &w.reqs[i]
				sent := time.Now()
				status, body, err := w.dm.post(w.dm.clients[c], rq.body)
				lats[c] = append(lats[c], msSince(sent))
				w.b.check(err == nil && status == http.StatusOK && bytes.Equal(body, rq.want))
			}
		}(c)
	}
	wg.Wait()
	p := pass{busy: time.Since(start).Seconds()}
	for _, l := range lats {
		p.lat = append(p.lat, l...)
	}
	p.work = float64(len(p.lat))
	return p
}

func (w *serveW) unit() (string, float64) { return "requests", 0.99 }

func (w *serveW) traced() (map[string]float64, error) {
	layers := map[string]float64{}
	runtimeDelta(layers, len(w.reqs), func() { w.pass() })

	// The pipeline replay runs on each app's served snapshot, whose front
	// end is the warm one every loaded snapshot shares.
	ctx := context.Background()
	var jobs []replayJob
	leases := map[string]*serve.Lease{}
	defer func() {
		for _, l := range leases {
			l.Release()
		}
	}()
	for _, data := range w.apps {
		l, err := w.dm.d.Registry().Acquire(ctx, data.Info.Package, "")
		if err != nil {
			return nil, err
		}
		leases[data.Info.Package] = l
		var reviews []core.ReviewInput
		for _, rq := range w.reqs {
			if rq.pkg == data.Info.Package {
				reviews = append(reviews, core.ReviewInput{Text: rq.text, PublishedAt: rq.when})
			}
		}
		sn := l.Pool.Snapshot()
		jobs = append(jobs, replayJob{app: l.App, reviews: reviews, snap: func() *core.Snapshot { return sn }})
	}
	w.b.replay(jobs, layers)
	return layers, w.probe(ctx, layers, leases)
}

// probe times one request at a time through each serving layer from
// outside: the socket, the in-process handler, the direct solver call, the
// registry lease and the JSON work.
func (w *serveW) probe(ctx context.Context, layers map[string]float64, leases map[string]*serve.Lease) error {
	n := len(w.reqs)
	if s := w.b.size.sample; s > 0 && s < n {
		n = s
	}
	t := w.b.tr
	h := w.dm.d.Handler()
	for i := 0; i < n; i++ {
		rq := &w.reqs[i]
		op := int32(1_000_000 + i)
		root := t.begin("serve.request", -1, op)

		c := t.begin("serve.socket", root, op)
		status, body, err := w.dm.post(w.dm.clients[0], rq.body)
		t.finish(c)
		w.b.check(err == nil && status == http.StatusOK && bytes.Equal(body, rq.want))

		c = t.begin("serve.handler", root, op)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/localize", bytes.NewReader(rq.body)))
		t.finish(c)
		w.b.check(rec.Code == http.StatusOK && bytes.Equal(rec.Body.Bytes(), rq.want))

		c = t.begin("serve.lease", root, op)
		l, err := w.dm.d.Registry().Acquire(ctx, rq.pkg, "")
		if err == nil {
			l.Release()
		}
		t.finish(c)
		if err != nil {
			return err
		}

		lease := leases[rq.pkg]
		c = t.begin("serve.direct", root, op)
		res := lease.Solver.LocalizeReview(lease.App, rq.text, rq.when)
		t.finish(c)

		c = t.begin("serve.json", root, op)
		var req serve.LocalizeRequest
		err = json.Unmarshal(rq.body, &req)
		var out []byte
		if err == nil {
			out, err = expectedBody(req.App, lease.Version, req.Review, res)
		}
		t.finish(c)
		w.b.check(err == nil && bytes.Equal(out, rq.want))
		t.finish(root)
	}
	us := func(name string) []float64 {
		d := t.durations(name)
		v := make([]float64, len(d))
		for i, x := range d {
			v[i] = float64(x) / float64(time.Microsecond)
		}
		return v
	}
	socket, handler := us("serve.socket"), us("serve.handler")
	wire := make([]float64, len(socket))
	for i := range socket {
		wire[i] = socket[i] - handler[i]
	}
	direct := median(us("serve.direct"))
	layers["serve.handler_us"] = median(handler)
	layers["serve.http_us"] = median(wire)
	layers["serve.direct_us"] = direct
	layers["serve.overhead_share"] = (median(socket) - direct) / median(socket)
	layers["serve.lease_us"] = median(us("serve.lease"))
	layers["serve.json_us"] = median(us("serve.json"))
	return nil
}

func (w *serveW) notes() []string {
	return []string{fmt.Sprintf("%d requests over %d apps per pass, %d connections; warm-up pass %.2fs",
		len(w.reqs), len(w.apps), conns, w.warmS)}
}

func (w *serveW) close() { w.dm.close() }
