// Command perfbench is the ReviewSolver performance benchmark. One run
// executes one workload (triage, serve, longreview or rollout) at a given
// seed, checks every output against a reference, and prints a JSON result
// as the last line of standard output:
//
//	go run . -workload triage -seed 1 -seconds 8 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 a
// separate traced run replays the workload's reviews through each public
// layer call under spans and reports per-layer metrics instead. A machine
// block (CPU, GOMAXPROCS, Go version, seed, commit) precedes the result, and
// a human-readable report goes to standard error. NOTES.md describes the
// workloads, the metrics and the known pitfalls.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's contract output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics an untraced run reports, every workload alike.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
	{"throughput", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
}

// locStages are the nine §4.1/§4.2 localizers in pipeline order, named as
// the pipeline's own stage spans name them.
var locStages = []string{
	"app_specific", "gui", "error_message", "opening_app", "registration",
	"api_uri_intent", "general_task", "exception", "update",
}

// perLayer lists the metrics a traced run reports. A workload that does not
// exercise a layer reports 0 for it.
var perLayer = func() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"setup.train_s", "s"},
		{"textclass.ns_per_review", "ns"},
		{"textclass.share", "ratio"},
		{"textclass.error_share", "ratio"},
		{"analyze.ns_per_review", "ns"},
		{"analyze.ns_per_kb", "ns"},
		{"analyze.share", "ratio"},
		{"analyze.sentence_hit_ratio", "ratio"},
		{"analyze.phrase_hit_ratio", "ratio"},
	}
	for _, st := range locStages {
		out = append(out,
			struct{ name, unit string }{"loc." + st + ".ns_per_review", "ns"},
			struct{ name, unit string }{"loc." + st + ".share", "ratio"},
			struct{ name, unit string }{"loc." + st + ".mappings", "count"})
	}
	return append(out, []struct{ name, unit string }{
		{"rank.ns_per_review", "ns"},
		{"rank.share", "ratio"},
		{"other.share", "ratio"},
		{"scan.method.pruned_share", "ratio"},
		{"scan.catalog.pruned_share", "ratio"},
		{"scan.evaluated", "count"},
		{"scan.matched", "count"},
		{"pool.parallel_efficiency", "ratio"},
		{"serve.handler_us", "us"},
		{"serve.http_us", "us"},
		{"serve.direct_us", "us"},
		{"serve.overhead_share", "ratio"},
		{"serve.lease_us", "us"},
		{"serve.json_us", "us"},
		{"static.delta_ms", "ms"},
		{"static.full_ms", "ms"},
		{"static.rows_reused_share", "ratio"},
		{"snapfile.encode_ms", "ms"},
		{"snapfile.load_ms", "ms"},
		{"snapfile.image_kb", "KB"},
		{"registry.swap_ms", "ms"},
		{"gc.cycles", "count"},
		{"gc.pause_ms", "ms"},
		{"alloc_mb_per_1k_ops", "MB"},
		{"trace.overhead_share", "ratio"},
	}...)
}()

func main() {
	var (
		name    = flag.String("workload", "", "workload: triage, serve, longreview or rollout")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 8, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end measurement")
	)
	flag.Parse()
	res, err := run(*name, *seed, *seconds, *trace == 1, fullSize, filepath.Join(".bench_build", "spans"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload run and assembles its contract result.
func run(name string, seed int64, seconds float64, traced bool, sz size, spanDir string) (*result, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want triage, serve, longreview or rollout)", name)
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive, got %v", seconds)
	}
	printMachine(name, seed, traced)
	b := &bench{seed: seed, seconds: seconds, size: sz, spanDir: spanDir, tr: newTracer()}

	// Set up several times and keep the last: setup_s is their median, so
	// one slow set-up does not move it.
	setups := 1
	if !traced {
		setups = sz.setups
	}
	var (
		state    runner
		setupDur []float64
	)
	for i := 0; i < setups; i++ {
		if state != nil {
			state.close()
			state = nil
		}
		runtime.GC()
		r, dur, err := timedSetup(w, b)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		state, setupDur = r, append(setupDur, dur)
	}
	defer state.close()
	if err := state.prepare(); err != nil {
		return nil, fmt.Errorf("%s prepare: %w", name, err)
	}

	res := &result{Metrics: map[string]metric{}}
	var report []string
	if traced {
		layers, err := state.traced()
		if err != nil {
			return nil, fmt.Errorf("%s traced run: %w", name, err)
		}
		layers["setup.train_s"] = b.trainS
		if err := b.saveSpans(name); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: layers[m.name], Unit: m.unit}
		}
		for k := range layers {
			if _, ok := res.Metrics[k]; !ok {
				return nil, fmt.Errorf("traced run produced undeclared metric %q", k)
			}
		}
		report = state.notes()
	} else {
		// Whole passes until the run's seconds are spent. Throughput and the
		// median latency are medians over passes, so one pass slowed by the
		// host does not move them; the tail pools every pass's samples.
		runtime.GC()
		steal0 := stealSeconds()
		heap := startHeapSampler()
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		var rates, p50s, all []float64
		for len(rates) == 0 || time.Now().Before(deadline) {
			runtime.GC() // each pass starts from the same heap state
			p := state.pass()
			if p.work == 0 || p.busy <= 0 {
				heap.stop()
				return nil, fmt.Errorf("%s pass measured no operations", name)
			}
			rates = append(rates, p.work/p.busy)
			p50s = append(p50s, median(p.lat))
			all = append(all, p.lat...)
		}
		peak := heap.stop()
		unit, tailQ := state.unit()
		sort.Float64s(all)
		vals := map[string]float64{
			"setup_s":      median(setupDur),
			"heap_peak_mb": float64(peak) / mb,
			"throughput":   median(rates),
			"p50_ms":       median(p50s),
			"tail_ms":      quantile(all, tailQ),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		}
		report = append(state.notes(),
			fmt.Sprintf("by workload name: error_share %.4g, %s", float64(b.failed.Load())/float64(b.attempted.Load()),
				workloadNames(name, res.Metrics)),
			fmt.Sprintf("throughput counts %s per second; per pass: %.5g", unit, rates),
			fmt.Sprintf("tail is p%g of %d samples (%d beyond it); p90 %.4g p99 %.4g p99.9 %.4g ms",
				tailQ*100, len(all), beyond(len(all), tailQ),
				quantile(all, 0.9), quantile(all, 0.99), quantile(all, 0.999)),
			fmt.Sprintf("set-ups: %.4g s; CPU time stolen by the host while measuring: %.2f s",
				setupDur, stealSeconds()-steal0))
	}
	res.Attempted, res.Failed = b.attempted.Load(), b.failed.Load()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	printReport(name, res, report)
	return res, nil
}

// workloadNames renders a workload's end-to-end metrics under the
// workload-specific names NOTES.md maps them to.
func workloadNames(workload string, m map[string]metric) string {
	alias := map[string][][2]string{
		"triage":     {{"triage_reviews_per_s", "throughput"}},
		"serve":      {{"serve_rps", "throughput"}, {"serve_p50_ms", "p50_ms"}, {"serve_p99_ms", "tail_ms"}},
		"longreview": {{"longreview_kb_per_s", "throughput"}, {"longreview_tail_ms", "tail_ms"}},
		"rollout":    {{"rollout_p50_ms", "p50_ms"}},
	}[workload]
	var parts []string
	for _, a := range alias {
		parts = append(parts, fmt.Sprintf("%s %.6g %s", a[0], m[a[1]].Value, m[a[1]].Unit))
	}
	return strings.Join(parts, ", ")
}

// printMachine writes the machine block: what ran, where, on which code.
func printMachine(workload string, seed int64, traced bool) {
	commit, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	block := map[string]any{"machine": map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"seed":       seed,
		"workload":   workload,
		"traced":     traced,
		"commit":     commit,
		"modified":   modified,
	}}
	line, _ := json.Marshal(block)
	fmt.Println(string(line))
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" elsewhere).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealSeconds reads the CPU time the hypervisor took from this machine's
// CPUs, summed over CPUs, from /proc/stat (0 where it is unavailable).
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// printReport writes the human-readable run summary to standard error.
func printReport(name string, res *result, notes []string) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(os.Stderr, "perfbench %s: correct=%v attempted=%d failed=%d\n",
		name, res.Correct, res.Attempted, res.Failed)
	for _, k := range keys {
		m := res.Metrics[k]
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", k, m.Value, m.Unit)
	}
	for _, n := range notes {
		fmt.Fprintln(os.Stderr, "  #", n)
	}
}
