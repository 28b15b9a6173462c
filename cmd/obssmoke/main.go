// Command obssmoke is the CI smoke test for the telemetry layer. It drains
// the seeded sample corpus through an observed, traced pool and checks the
// whole observability contract end to end:
//
//   - every explain trace validates against the trace schema;
//   - the explain traces are byte-deterministic: a second run with a
//     different worker count must reproduce the identical JSON (modulo the
//     scheduling-dependent pool occupancy block, which is stripped first);
//   - stage spans ran and the span log emitted events;
//   - the registry is coherent (reviews counted, scan counters moved,
//     pool gauges drained back to zero);
//   - the debug server serves /debug/vars (expvar), /metrics, and /healthz.
//
// It exits non-zero with a diagnostic on the first violated property.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"

	"reviewsolver/internal/core"
	"reviewsolver/internal/obs"
	"reviewsolver/internal/synth"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "obssmoke:", err)
		os.Exit(1)
	}
}

func run() error {
	seed := int64(1)
	data := synth.GenerateSample(seed)
	reviews := make([]core.ReviewInput, len(data.Reviews))
	for i, rv := range data.Reviews {
		reviews[i] = core.ReviewInput{Text: rv.Text, PublishedAt: rv.PublishedAt}
	}

	// Pass 1: tracing on, spans logged, 4 workers.
	var spanLog bytes.Buffer
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, slog.New(slog.NewTextHandler(&spanLog, nil)))
	sn := core.NewSnapshot()
	pool := core.NewPoolWithSnapshot(4, sn).WithObserver(rec)
	results, traces := pool.LocalizeTraced(data.App, reviews)

	if len(results) != len(reviews) || len(traces) != len(reviews) {
		return fmt.Errorf("got %d results / %d traces for %d reviews",
			len(results), len(traces), len(reviews))
	}

	// Every trace must encode and validate against the schema.
	encoded := make([][]byte, len(traces))
	for i, tr := range traces {
		jsonBytes, err := tr.JSON()
		if err != nil {
			return fmt.Errorf("trace %d: encode: %w", i, err)
		}
		if err := obs.ValidateTraceJSON(jsonBytes); err != nil {
			return fmt.Errorf("trace %d: %w", i, err)
		}
		encoded[i] = jsonBytes
	}

	// Pass 2: different worker count, no span log. Stripped of the pool
	// occupancy block, every trace must be byte-identical to pass 1.
	pool2 := core.NewPoolWithSnapshot(2, sn).WithObserver(obs.NewRecorder(obs.NewRegistry(), nil))
	_, traces2 := pool2.LocalizeTraced(data.App, reviews)
	for i := range traces {
		a, err := stripPool(encoded[i])
		if err != nil {
			return err
		}
		jsonBytes, err := traces2[i].JSON()
		if err != nil {
			return fmt.Errorf("trace %d (pass 2): encode: %w", i, err)
		}
		b, err := stripPool(jsonBytes)
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("trace %d is not deterministic across worker counts (4 vs 2 workers)", i)
		}
	}

	// Registry coherence.
	snap := reg.Snapshot()
	checks := []struct {
		key  string
		want float64
	}{
		{"reviews_total", float64(len(reviews))},
		{"pool_jobs_total", float64(len(reviews))},
		{"pool_queue_depth", 0},
		{"pool_workers_busy", 0},
	}
	for _, c := range checks {
		if got := snap[c.key]; got != c.want {
			return fmt.Errorf("registry: %s = %g, want %g", c.key, got, c.want)
		}
	}
	for _, key := range []string{
		"stage_review_ns|count", "stage_localize_ns|count",
		"prescreen_evaluated_total",
		"match_similarity|count",
		// Front-end engine: the sentence cache must be consulted (and hit —
		// the seeded corpus repeats sentences) and the drained pool must have
		// published the interner and cache residency gauges.
		"analysis_cache_hits_total", "analysis_cache_misses_total",
		"interner_size", "analysis_cache_size",
	} {
		if snap[key] <= 0 {
			return fmt.Errorf("registry: %s = %g, want > 0", key, snap[key])
		}
	}
	if spanLog.Len() == 0 {
		return fmt.Errorf("span log is empty with a logger installed")
	}

	// Debug server: expvar, text metrics, health.
	ds, err := obs.StartDebugServer("127.0.0.1:0", reg)
	if err != nil {
		return fmt.Errorf("start debug server: %w", err)
	}
	defer ds.Close()
	base := "http://" + ds.Addr()

	body, err := get(base + "/debug/vars")
	if err != nil {
		return err
	}
	var vars struct {
		ReviewSolver map[string]float64 `json:"reviewsolver"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		return fmt.Errorf("/debug/vars: not valid JSON: %w", err)
	}
	if got := vars.ReviewSolver["reviews_total"]; got != float64(len(reviews)) {
		return fmt.Errorf("/debug/vars: reviewsolver.reviews_total = %g, want %d", got, len(reviews))
	}
	body, err = get(base + "/metrics")
	if err != nil {
		return err
	}
	if !bytes.Contains(body, []byte("counter reviews_total")) {
		return fmt.Errorf("/metrics exposition is missing the reviews_total counter")
	}
	if _, err := get(base + "/healthz"); err != nil {
		return err
	}

	fmt.Printf("obssmoke: %d reviews, %d traces validated, %d metrics, debug endpoints ok\n",
		len(reviews), len(traces), len(snap))
	return nil
}

// stripPool removes the scheduling-dependent "pool" block from an encoded
// trace so the rest can be compared byte-for-byte.
func stripPool(data []byte) ([]byte, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("strip pool block: %w", err)
	}
	delete(m, "pool")
	return json.Marshal(m)
}

func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: read: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}
