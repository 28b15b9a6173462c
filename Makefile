# ReviewSolver offline CI harness. Every target runs without network
# access; `make ci` is the full gate the driver runs on each PR.

GO      ?= go
BENCHDIR ?= bench
TOL     ?= 0.02

.PHONY: ci ci-fast fmt vet build test race perfbench-check benchgate bench bench-all obs-smoke serve-smoke fleetobs-smoke delta-smoke fuzz-smoke snapshot profile update-baselines clean

ci:
	./ci.sh

# Quick pre-push subset of the gate: no race detector, no benchgate, no
# smokes. Seconds instead of minutes.
ci-fast: fmt vet build test

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core/... ./internal/obs/... ./internal/snapfile/... ./internal/wordvec/... ./internal/serve/... ./internal/qa/...

# The benchmark harness is its own module (perfbench/go.mod), so the root
# build and test skip it. Format-check, vet and self-test it against the
# current tree so an API break it alone sees fails here, not at bench time.
perfbench-check:
	@out="$$(gofmt -l perfbench)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

benchgate:
	$(GO) run ./cmd/benchgate -dir $(BENCHDIR) -tol $(TOL)

update-baselines:
	$(GO) run ./cmd/benchgate -dir $(BENCHDIR) -tol $(TOL) -update

# Benchmark smoke: one iteration of the similarity-kernel micro benchmarks,
# the end-to-end localization benchmarks (sequential, parallel, observed),
# the corpus throughput run, and classifier training and inference. Fast
# enough for CI; catches compile rot and panics in the benchmarks.
bench:
	$(GO) test -run xxx -bench 'CosineVsDot|MatrixScan|LocalizeReview|CorpusThroughput|ClassifierPredict|BoostedTreesFit' -benchtime 1x .

bench-all:
	$(GO) test -run xxx -bench . -benchtime 1x .

# Telemetry smoke: drain the seeded corpus with tracing on, validate every
# explain trace against the schema (and its byte-determinism across worker
# counts), and scrape the expvar/metrics/health endpoints once.
obs-smoke:
	$(GO) run ./cmd/obssmoke

# Serving-layer smoke: boot an in-process reviewd on a free port, register
# two compiled snapshots over HTTP, drive concurrent traffic (including one
# injected panic), and diff every served response byte-for-byte against a
# direct solver over the same snapshots.
serve-smoke:
	$(GO) run ./cmd/servesmoke

# Fleet-observability smoke: run the deterministic fleet scenario through
# `reviewd -fleetstat` twice and require byte-identical SLO digest
# artifacts (the scenario also backs the exact BENCH_FLEETOBS.json gate).
fleetobs-smoke:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/reviewd -fleetstat "$$dir/a.json" -q && \
	$(GO) run ./cmd/reviewd -fleetstat "$$dir/b.json" -q && \
	cmp "$$dir/a.json" "$$dir/b.json"

# Version-bump smoke: compile a base snapshot, write a delta image against
# it twice (must be byte-identical), verify the delta round-trips and
# localizes like the direct build, and run one iteration of the
# version-bump rebuild benchmark.
delta-smoke:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/snapshotc -app $(SNAPAPP) -o "$$dir/base.snap" -q && \
	$(GO) run ./cmd/snapshotc -app $(SNAPAPP) -base "$$dir/base.snap" -o "$$dir/a.snap" -verify -q && \
	$(GO) run ./cmd/snapshotc -app $(SNAPAPP) -base "$$dir/base.snap" -o "$$dir/b.snap" -q && \
	cmp "$$dir/a.snap" "$$dir/b.snap"
	$(GO) test -run '^$$' -bench DeltaRebuild -benchtime 1x ./internal/synth

# Short fuzz runs over the hostile-input surfaces: the snapshot container
# decoder, the full snapshot loader, and the delta-section decoder. All must
# return typed errors, never panic. FuzzTopAPIs checks the Q&A postings
# index against the linear-scan oracle. (The committed seed corpora live
# under */testdata/fuzz/.)
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzOpen -fuzztime 5s ./internal/snapfile
	$(GO) test -run '^$$' -fuzz FuzzLoadSnapshotBytes -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzLoadSnapshotDeltaImages -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzDecodeEvents -fuzztime 5s ./internal/obs
	$(GO) test -run '^$$' -fuzz FuzzTopAPIs -fuzztime 5s ./internal/qa

# Compile (and verify) the snapshot of one built-in app. Override with e.g.
#   make snapshot SNAPAPP=org.wordpress.android SNAPOUT=wp.snap
SNAPAPP ?= com.fsck.k9
SNAPOUT ?= $(SNAPAPP).snap
snapshot:
	$(GO) run ./cmd/snapshotc -app $(SNAPAPP) -o $(SNAPOUT) -verify

# Profiling workflow: run the streaming corpus benchmark long enough for a
# useful sample and drop CPU + heap profiles under $(PROFDIR). Inspect with
#   go tool pprof $(PROFDIR)/cpu.out
#   go tool pprof -sample_index=alloc_objects $(PROFDIR)/heap.out
PROFDIR ?= profiles
profile:
	@mkdir -p $(PROFDIR)
	$(GO) test -run xxx -bench 'CorpusThroughput|ParallelLocalizeReview$$|AnalyzeReview' -benchtime 3s \
		-cpuprofile $(PROFDIR)/cpu.out -memprofile $(PROFDIR)/heap.out .
	@echo "profiles written to $(PROFDIR)/cpu.out and $(PROFDIR)/heap.out"

clean:
	$(GO) clean ./...
