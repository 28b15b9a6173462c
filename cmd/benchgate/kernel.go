package main

import (
	"strings"

	"reviewsolver/internal/core"
	"reviewsolver/internal/synth"
)

// kernelProbes are fixed query phrases scanned against the method-phrase and
// framework-catalog matrices. Their evaluate/match counts are pure functions
// of the embedding model and the seeded corpus, so any change to the kernel
// or the flattened matrix layout shifts at least one count.
var kernelProbes = []string{
	"fetch mail",
	"send message",
	"download attachment",
	"sync account",
	"open settings",
}

// kernelSnapshot builds the BENCH_KERNEL.json snapshot: deterministic scan
// statistics plus the full pipeline's mapping count. Unlike wall-clock
// benchmarks these numbers are exactly reproducible, so the gate catches
// kernel regressions without timing noise.
func kernelSnapshot(seed int64) snapshotFile {
	data := synth.GenerateSample(seed)
	app := data.App
	release := app.Releases[len(app.Releases)-1]

	s := core.New()
	info := s.StaticFor(release)

	m := map[string]float64{
		"shape|method_rows":  float64(info.MethodRows()),
		"shape|catalog_rows": float64(s.CatalogRows()),
	}
	for _, phrase := range kernelProbes {
		key := strings.ReplaceAll(phrase, " ", "_")
		_, ev, ma := s.KernelScanStats(info, phrase)
		m["method|"+key+"|evaluated"] = float64(ev)
		m["method|"+key+"|matched"] = float64(ma)
		_, ev, ma = s.CatalogScanStats(phrase)
		m["catalog|"+key+"|evaluated"] = float64(ev)
		m["catalog|"+key+"|matched"] = float64(ma)
	}

	// Full pipeline over the first reviews: the mapping count moves with
	// any change to what the scans yield.
	reviews := data.Reviews
	if len(reviews) > 10 {
		reviews = reviews[:10]
	}
	mappings := 0
	for _, rv := range reviews {
		mappings += len(s.LocalizeReview(app, rv.Text, rv.PublishedAt).Mappings)
	}
	m["pipeline|mappings"] = float64(mappings)

	return snapshotFile{
		Table:   0,
		ID:      "kernel",
		Title:   "Similarity-kernel scan statistics",
		Seed:    seed,
		Metrics: m,
	}
}
