package core

import (
	"sync"

	"reviewsolver/internal/apk"
)

// This file is the version-bump entry point of the §3.3.2 extraction.
// ExtractStaticDelta runs the one extraction path (ExtractStatic) and takes
// from the previous release's extraction only values that are pure
// functions of names: a method's name-phrase row (words and embedding) is a
// function of (class, method name), and an API's describing phrases and
// their embeddings are a function of the API key. Everything else — the
// graph, taint inventories, GUI recovery, widget-id embeddings, summary rows
// and the scan state — is recomputed on every call, so nothing inherited can
// go stale and the result equals a cold ExtractStatic bit for bit
// (TestExtractStaticReuseMatchesCold).

// DeltaStats reports the structural diff behind a version-bump extraction
// and how many embedding rows it reused.
type DeltaStats struct {
	// Applied reports whether this call performed the extraction (false when
	// the snapshot already held the release).
	Applied bool

	// Diff summary.
	ClassesAdded, ClassesRemoved, ClassesChanged int

	// Row accounting for the two scan matrices: a reused method row's
	// name-phrase embedding was taken from the previous extraction by
	// (class, method name); every other row was embedded afresh. Widget-id
	// rows are always fresh.
	MethodRowsReused, MethodRowsFresh int
	InvisibleRowsFresh                int
}

// RowsReused returns the total matrix rows whose embedding was reused from
// the previous extraction.
func (st *DeltaStats) RowsReused() int { return st.MethodRowsReused }

// RowsFresh returns the total matrix rows embedded afresh.
func (st *DeltaStats) RowsFresh() int {
	return st.MethodRowsFresh + st.InvisibleRowsFresh
}

// ExtractStaticDelta runs the §3.3.2 extraction for release r, reusing the
// name-keyed embeddings of prev (the previous release's extraction, or nil),
// and reports the class diff between the two releases. The result equals
// ExtractStatic(r); only the build cost differs.
func (s *Solver) ExtractStaticDelta(prev *StaticInfo, r *apk.Release) (*StaticInfo, *DeltaStats) {
	stats := &DeltaStats{Applied: true}
	if prev != nil {
		d := apk.DiffReleases(prev.Release, r)
		stats.ClassesAdded = len(d.AddedClasses)
		stats.ClassesRemoved = len(d.RemovedClasses)
		stats.ClassesChanged = len(d.ChangedClasses)
	}
	info, reused := s.extractStatic(prev, r)
	stats.MethodRowsReused = reused
	stats.MethodRowsFresh = len(info.MethodPhrases) - reused
	stats.InvisibleRowsFresh = info.invisibleMatrix.Rows()
	return info, stats
}

// releaseDiffCache memoizes the changed-class sets change-aware ranking
// consults, keyed by the (previous, current) release pointer pair. Held by
// Solver as a pointer so copies made from a snapshot template share one
// cache; sync.Map fits the write-once read-many access pattern.
type releaseDiffCache struct {
	m sync.Map // [2]*apk.Release -> map[string]struct{}
}

// changedClasses returns the set of classes added or changed between prev
// and cur, memoized when a cache is installed (WithChangeAwareRank).
func (s *Solver) changedClasses(prev, cur *apk.Release) map[string]struct{} {
	if s.changedCache == nil {
		return changedClassSet(prev, cur)
	}
	key := [2]*apk.Release{prev, cur}
	if v, ok := s.changedCache.m.Load(key); ok {
		return v.(map[string]struct{})
	}
	set := changedClassSet(prev, cur)
	actual, _ := s.changedCache.m.LoadOrStore(key, set)
	return actual.(map[string]struct{})
}

func changedClassSet(prev, cur *apk.Release) map[string]struct{} {
	d := apk.DiffReleases(prev, cur)
	set := make(map[string]struct{})
	for _, n := range d.TouchedClasses() {
		set[n] = struct{}{}
	}
	return set
}

// ApplyDelta computes and installs the extraction for newR, reusing the
// name-keyed embeddings of prevR's extraction (computing that first if
// needed; prevR may be nil). It is safe for concurrent use; if the snapshot
// already holds newR the call is a no-op (Applied stays false in the
// returned stats).
func (sn *Snapshot) ApplyDelta(prevR, newR *apk.Release) *DeltaStats {
	stats := &DeltaStats{}
	var prev *StaticInfo
	if prevR != nil {
		prev = sn.StaticFor(prevR)
	}
	e := sn.entry(newR)
	e.once.Do(func() { e.info, stats = sn.solver.ExtractStaticDelta(prev, newR) })
	return stats
}

// PrecomputeDelta extracts every release of an app in version order, each
// reusing the name-keyed embeddings of its predecessor. The returned stats
// are parallel to app.Releases. Compared to Precompute this trades the
// cross-release fan-out for fewer embeddings per version bump.
func (sn *Snapshot) PrecomputeDelta(app *apk.App) []*DeltaStats {
	out := make([]*DeltaStats, len(app.Releases))
	for i, r := range app.Releases {
		var prevR *apk.Release
		if i > 0 {
			prevR = app.Releases[i-1]
		}
		out[i] = sn.ApplyDelta(prevR, r)
	}
	return out
}
