package obs

import (
	"encoding/json"
	"fmt"
)

// TraceSchemaVersion identifies the explain-trace JSON schema. Bump it on
// any structural change so downstream consumers can dispatch.
const TraceSchemaVersion = 1

// ReviewTrace is the explain-trace artifact for one localized review: a
// deterministic record of which phrase matched which candidate via which
// information source at what similarity, how many rows each kernel scan
// touched, and how the review moved through the pipeline stages. It deliberately
// carries no wall-clock fields — for a fixed corpus, model, and review the
// JSON encoding is byte-identical across runs (durations live in the
// metrics registry and the span log instead).
//
// A ReviewTrace is filled by a single review's localization; it is not
// safe for concurrent writers. The core pipeline collects chunk-local
// match lists inside its worker fan-out and appends them here in
// deterministic candidate order after the chunks join.
type ReviewTrace struct {
	// SchemaVersion is TraceSchemaVersion at encode time.
	SchemaVersion int `json:"schema_version"`
	// Review is the raw review text.
	Review string `json:"review"`
	// IsError is the classifier's decision (§3.2.2).
	IsError bool `json:"is_error"`
	// Release is the APK version the review was matched against.
	Release string `json:"release,omitempty"`
	// Stages lists the pipeline stages that ran, in execution order, with
	// the number of mappings each produced.
	Stages []StageTrace `json:"stages,omitempty"`
	// Matches are the phrase → candidate correlations, in the order the
	// (deterministically merged) localizers emitted them.
	Matches []MatchTrace `json:"matches,omitempty"`
	// Scans record the row counts of every kernel matrix scan.
	Scans []ScanTrace `json:"scans,omitempty"`
	// Pool captures queue/worker occupancy at pickup when the review was
	// drained through a core.Pool (absent for standalone localization).
	Pool *PoolTrace `json:"pool,omitempty"`
	// Ranked lists the recommended classes in rank order, each pointing at
	// the Matches entries that voted for it.
	Ranked []RankedTrace `json:"ranked,omitempty"`
}

// StageTrace is one pipeline stage in the explain trace.
type StageTrace struct {
	// Stage is the stage slug ("classify", "localize/app_specific", …).
	Stage string `json:"stage"`
	// Parent is the enclosing stage slug ("" for roots).
	Parent string `json:"parent,omitempty"`
	// Matches counts the mappings the stage produced (before dedup).
	Matches int `json:"matches"`
}

// MatchTrace is one phrase → candidate correlation.
type MatchTrace struct {
	// Phrase is the review phrase that triggered the match.
	Phrase string `json:"phrase"`
	// Class / Method name the matched code location.
	Class  string `json:"class"`
	Method string `json:"method,omitempty"`
	// Stage is the localizer stage slug that found the match.
	Stage string `json:"stage"`
	// Source is the §3.3 information source consulted ("method name",
	// "widget id", "app message", "API description", …).
	Source string `json:"source"`
	// Evidence is the human-readable justification string.
	Evidence string `json:"evidence"`
	// Similarity is the semantic similarity that crossed the threshold
	// (1 for exact lexical/rule matches).
	Similarity float64 `json:"similarity"`
}

// ScanTrace records the row statistics of one phrase × matrix scan.
type ScanTrace struct {
	// Stage is the localizer stage slug that issued the scan.
	Stage string `json:"stage"`
	// Matrix names the scanned candidate matrix ("method_phrases",
	// "widget_ids", "catalog").
	Matrix string `json:"matrix"`
	// Phrase is the query phrase.
	Phrase string `json:"phrase"`
	// Rows is the matrix size; Evaluated rows paid a dot product, Matched
	// rows crossed the threshold.
	Rows      int `json:"rows"`
	Evaluated int `json:"evaluated"`
	Matched   int `json:"matched"`
}

// PoolTrace is the pool occupancy observed when a worker picked the review
// up.
type PoolTrace struct {
	// Workers is the pool size.
	Workers int `json:"workers"`
	// QueueDepth is the number of reviews still waiting at pickup.
	QueueDepth int `json:"queue_depth"`
	// BusyWorkers is the number of busy workers at pickup (including the
	// one picking this review up).
	BusyWorkers int `json:"busy_workers"`
}

// RankedTrace is one recommended class with pointers to its evidence.
type RankedTrace struct {
	// Rank is the 1-based position in the recommendation list.
	Rank int `json:"rank"`
	// Class is the recommended class.
	Class string `json:"class"`
	// Importance and Dependencies are the §4.3 ranking signals.
	Importance   int `json:"importance"`
	Dependencies int `json:"dependencies"`
	// Matches indexes into ReviewTrace.Matches: the correlations that
	// voted for this class.
	Matches []int `json:"matches"`
}

// NewReviewTrace starts an explain trace for one review.
func NewReviewTrace(review string) *ReviewTrace {
	return &ReviewTrace{SchemaVersion: TraceSchemaVersion, Review: review}
}

// AddStage appends a stage record. Nil-safe.
func (t *ReviewTrace) AddStage(stage, parent string, matches int) {
	if t == nil {
		return
	}
	t.Stages = append(t.Stages, StageTrace{Stage: stage, Parent: parent, Matches: matches})
}

// AddMatch appends one correlation and returns its index. Nil-safe (-1).
func (t *ReviewTrace) AddMatch(m MatchTrace) int {
	if t == nil {
		return -1
	}
	t.Matches = append(t.Matches, m)
	return len(t.Matches) - 1
}

// AddMatches appends a chunk of correlations in order. Nil-safe.
func (t *ReviewTrace) AddMatches(ms []MatchTrace) {
	if t == nil {
		return
	}
	t.Matches = append(t.Matches, ms...)
}

// AddScan appends one scan record. Nil-safe.
func (t *ReviewTrace) AddScan(s ScanTrace) {
	if t == nil {
		return
	}
	t.Scans = append(t.Scans, s)
}

// MatchesFor returns the indices of the matches naming the given class, in
// emission order. Nil-safe.
func (t *ReviewTrace) MatchesFor(class string) []int {
	if t == nil {
		return nil
	}
	var out []int
	for i := range t.Matches {
		if t.Matches[i].Class == class {
			out = append(out, i)
		}
	}
	return out
}

// JSON encodes the trace with stable field order and indentation; for a
// fixed pipeline input the bytes are identical across runs.
func (t *ReviewTrace) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ValidateTraceJSON checks raw bytes against the explain-trace schema: the
// schema version must match, required fields must be present and typed,
// and every ranked candidate must reference in-range match entries that
// name a phrase, an information source, and a similarity. It is the
// machine-checkable contract `make obs-smoke` enforces.
func ValidateTraceJSON(data []byte) error {
	var t ReviewTrace
	if err := json.Unmarshal(data, &t); err != nil {
		return fmt.Errorf("explain trace: not valid JSON: %w", err)
	}
	if t.SchemaVersion != TraceSchemaVersion {
		return fmt.Errorf("explain trace: schema_version %d, want %d", t.SchemaVersion, TraceSchemaVersion)
	}
	if t.Review == "" {
		return fmt.Errorf("explain trace: empty review text")
	}
	for i, m := range t.Matches {
		switch {
		case m.Phrase == "":
			return fmt.Errorf("explain trace: match %d has no phrase", i)
		case m.Class == "":
			return fmt.Errorf("explain trace: match %d has no class", i)
		case m.Source == "":
			return fmt.Errorf("explain trace: match %d has no information source", i)
		case m.Stage == "":
			return fmt.Errorf("explain trace: match %d has no stage", i)
		case m.Similarity < 0 || m.Similarity > 1.0000001:
			return fmt.Errorf("explain trace: match %d similarity %v out of [0, 1]", i, m.Similarity)
		}
	}
	for i, s := range t.Scans {
		// Early-exit scans (Algorithm 1's per-entry break) touch fewer rows
		// than the matrix holds; they can never touch more.
		if s.Evaluated > s.Rows {
			return fmt.Errorf("explain trace: scan %d evaluated %d > rows %d", i, s.Evaluated, s.Rows)
		}
		if s.Matched > s.Evaluated {
			return fmt.Errorf("explain trace: scan %d matched %d > evaluated %d", i, s.Matched, s.Evaluated)
		}
	}
	for i, rc := range t.Ranked {
		if rc.Rank != i+1 {
			return fmt.Errorf("explain trace: ranked %d has rank %d, want %d", i, rc.Rank, i+1)
		}
		if rc.Class == "" {
			return fmt.Errorf("explain trace: ranked %d has no class", i)
		}
		if len(rc.Matches) == 0 {
			return fmt.Errorf("explain trace: ranked class %s references no matches", rc.Class)
		}
		for _, mi := range rc.Matches {
			if mi < 0 || mi >= len(t.Matches) {
				return fmt.Errorf("explain trace: ranked class %s references match %d of %d",
					rc.Class, mi, len(t.Matches))
			}
			if t.Matches[mi].Class != rc.Class {
				return fmt.Errorf("explain trace: ranked class %s references match %d naming class %s",
					rc.Class, mi, t.Matches[mi].Class)
			}
		}
	}
	return nil
}
