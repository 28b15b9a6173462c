package core

import (
	"sort"
	"sync"

	"reviewsolver/internal/apg"
	"reviewsolver/internal/apk"
	"reviewsolver/internal/gui"
	"reviewsolver/internal/sdk"
	"reviewsolver/internal/textproc"
	"reviewsolver/internal/wordvec"
)

// This file implements incremental static extraction: given the finished
// extraction of the previous release and a structural diff against it,
// ExtractStaticDelta rebuilds only the artifacts the diff invalidates and
// reuses everything else — phrase embeddings, GUI recoveries and inventory
// entries.
//
// The invariant, property-tested in delta_test.go, is that a delta-built
// StaticInfo localizes byte-identically to a from-scratch ExtractStatic of
// the same release: every reused value is a pure function of inputs the
// diff proved unchanged, and every aggregate is re-emitted in the same
// deterministic (sorted) order the full build uses, so site-discovery order
// never leaks into the result.
//
// Per-kind soundness arguments:
//
//   - method phrases: derived from (method name, class name) and, for
//     summaries, the statement body — all covered by the class content
//     fingerprint. Reused rows keep their embedding bits.
//   - GUI recoveries: an activity's recovery reads its manifest declaration,
//     its layout tree, the string-resource table, and its own class's
//     methods. It is reused only when all four are untouched.
//   - content queries / intent sends / user messages: keyed by literal
//     framework API names, and the backward taint walk never leaves one
//     method body — so only touched (added/changed/removed) classes can
//     change an entry's membership.
//   - framework APIs: additionally classification-sensitive — adding or
//     removing an app class can flip call sites in *untouched* classes
//     between "app call" and "framework call". The rescan set is therefore
//     widened with every class invoking an added or removed class name, on
//     both graphs (ClassesInvoking).

// DeltaStats reports what an incremental extraction reused and recomputed.
type DeltaStats struct {
	// Applied reports whether this call performed the extraction (false when
	// the snapshot already held the release).
	Applied bool
	// Full reports a fallback to from-scratch ExtractStatic, with Reason.
	Full   bool
	Reason string

	// Diff summary.
	ClassesAdded, ClassesRemoved, ClassesChanged int

	// Row accounting for the two scan matrices: a reused row's embedding
	// was inherited from the base extraction, a fresh row's was computed.
	MethodRowsReused, MethodRowsFresh       int
	InvisibleRowsReused, InvisibleRowsFresh int

	// Per-activity GUI recoveries.
	GUIsReused, GUIsFresh int
}

// RowsReused returns the total matrix rows whose embedding was reused from
// the base extraction.
func (st *DeltaStats) RowsReused() int {
	return st.MethodRowsReused + st.InvisibleRowsReused
}

// RowsFresh returns the total matrix rows embedded afresh.
func (st *DeltaStats) RowsFresh() int {
	return st.MethodRowsFresh + st.InvisibleRowsFresh
}

// ExtractStaticDelta runs the §3.3.2 extraction for release r by patching
// the finished extraction of the previous release. The result localizes
// byte-identically to ExtractStatic(r); only the build cost differs. A nil
// prev, or a diff touching the majority of classes, falls back to the full
// extraction (reported in the stats).
func (s *Solver) ExtractStaticDelta(prev *StaticInfo, r *apk.Release) (*StaticInfo, *DeltaStats) {
	stats := &DeltaStats{}
	info := s.extractStaticDelta(prev, r, stats)
	return info, stats
}

func (s *Solver) extractStaticDelta(prev *StaticInfo, r *apk.Release, stats *DeltaStats) *StaticInfo {
	stats.Applied = true
	if prev == nil {
		stats.Full, stats.Reason = true, "no base extraction"
		return s.ExtractStatic(r)
	}
	d := apk.DiffReleases(prev.Release, r)
	stats.ClassesAdded = len(d.AddedClasses)
	stats.ClassesRemoved = len(d.RemovedClasses)
	stats.ClassesChanged = len(d.ChangedClasses)

	// recompute = classes whose derived artifacts cannot be reused: added,
	// changed, or removed (a removed class's contributions must drop out of
	// every aggregate).
	recompute := make(map[string]struct{}, stats.ClassesAdded+stats.ClassesRemoved+stats.ClassesChanged)
	for _, n := range d.TouchedClasses() {
		recompute[n] = struct{}{}
	}
	for _, n := range d.RemovedClasses {
		recompute[n] = struct{}{}
	}
	if 2*len(recompute) > len(r.Classes) {
		stats.Full, stats.Reason = true, "diff touches a majority of classes"
		return s.ExtractStatic(r)
	}

	g := apg.Build(r)
	mergeMethodOrder(prev, g, r, d, recompute)

	info := &StaticInfo{
		Release:     r,
		Graph:       g,
		Permissions: append([]string(nil), r.Manifest.Permissions...),
		Exceptions:  g.ExceptionSites(),
	}
	if act, ok := r.StartingActivity(); ok {
		info.StartingActivity = act.Name
	}

	recomputeKeys := sortedKeys(recompute)
	s.deltaGUIs(info, prev, r, g, d, recompute, stats)
	info.deltaAPIs(s, prev, g, d, recompute)
	info.deltaURIs(s, prev, g, recompute, recomputeKeys)
	info.deltaIntents(s, prev, g, recompute, recomputeKeys)
	info.deltaMessages(prev, g, recompute, recomputeKeys)
	info.deltaMethodPhrases(s, prev, g, recompute, stats)
	info.buildScanStateDelta(s, prev)
	return info
}

// mergeMethodOrder pre-seeds the graph's Methods() memo by merging the
// previous release's sorted method list (classes outside the recompute set,
// rebound to this graph's method pointers) with the freshly sorted methods
// of touched classes. On any mismatch it simply declines and Methods()
// falls back to its own sort — same order, just slower.
func mergeMethodOrder(prev *StaticInfo, g *apg.Graph, r *apk.Release, d *apk.ReleaseDelta, recompute map[string]struct{}) bool {
	prevMethods := prev.Graph.Methods()
	kept := make([]*apk.Method, 0, len(prevMethods))
	for _, m := range prevMethods {
		if _, skip := recompute[m.Class]; skip {
			continue
		}
		nm, ok := g.MethodRef(m.Class, m.Name)
		if !ok {
			return false
		}
		kept = append(kept, nm)
	}
	var fresh []*apk.Method
	for _, cn := range d.TouchedClasses() {
		c, ok := r.FindClass(cn)
		if !ok {
			continue
		}
		seen := make(map[string]struct{}, len(c.Methods))
		for _, m := range c.Methods {
			if _, dup := seen[m.Name]; dup {
				continue
			}
			seen[m.Name] = struct{}{}
			// MethodRef resolves duplicate declarations the way the graph
			// does (last declaration wins).
			nm, ok := g.MethodRef(cn, m.Name)
			if !ok {
				return false
			}
			fresh = append(fresh, nm)
		}
	}
	sort.Slice(fresh, func(i, j int) bool { return apg.QualifiedLess(fresh[i], fresh[j]) })
	merged := make([]*apk.Method, 0, len(kept)+len(fresh))
	ki, fi := 0, 0
	for ki < len(kept) && fi < len(fresh) {
		if apg.QualifiedLess(kept[ki], fresh[fi]) {
			merged = append(merged, kept[ki])
			ki++
		} else {
			merged = append(merged, fresh[fi])
			fi++
		}
	}
	merged = append(merged, kept[ki:]...)
	merged = append(merged, fresh[fi:]...)
	return g.AdoptMethodOrder(merged)
}

// deltaGUIs rebuilds info.GUIs and info.invisibleVecs, reusing the previous
// recovery (and widget-id embeddings) of every activity whose declaration,
// layout, string resources, and backing class are all untouched.
func (s *Solver) deltaGUIs(info *StaticInfo, prev *StaticInfo, r *apk.Release, g *apg.Graph, d *apk.ReleaseDelta, recompute map[string]struct{}, stats *DeltaStats) {
	prevByName := make(map[string]int32, len(prev.GUIs))
	for i := range prev.GUIs {
		if _, dup := prevByName[prev.GUIs[i].Activity]; !dup {
			prevByName[prev.GUIs[i].Activity] = int32(i)
		}
	}
	reused := make(map[string]int32)
	guis := make([]gui.ActivityGUI, 0, len(r.Manifest.Activities))
	// Same construction order as gui.Recover: manifest declaration order,
	// then one sort by activity name. Reused entries are value-identical to
	// what RecoverActivity would produce, so the sorted result matches the
	// full build's exactly.
	for _, decl := range r.Manifest.Activities {
		pgi, known := prevByName[decl.Name]
		_, classTouched := recompute[decl.Name]
		if known && !classTouched && !d.StringResChanged &&
			!d.ActivityTouched(decl.Name) && !d.LayoutTouched(decl.LayoutID) {
			guis = append(guis, prev.GUIs[pgi])
			reused[decl.Name] = pgi
			stats.GUIsReused++
			continue
		}
		guis = append(guis, gui.RecoverActivity(r, g, decl))
		stats.GUIsFresh++
	}
	sort.Slice(guis, func(i, j int) bool { return guis[i].Activity < guis[j].Activity })
	info.GUIs = guis

	// Recover the reuse mapping after the sort (reused names are unique:
	// duplicate declarations are conservatively diffed as changed) and embed
	// the invisible labels of fresh recoveries only. Each labeled widget is
	// one invisible-matrix row, counted as reused or fresh.
	info.invisibleVecs = make([][]wordvec.Vector, len(guis))
	for gi := range guis {
		a := &guis[gi]
		if pgi, ok := reused[a.Activity]; ok {
			info.invisibleVecs[gi] = prev.invisibleVecs[pgi]
			for _, idWords := range a.InvisibleWords {
				if len(idWords) > 0 {
					stats.InvisibleRowsReused++
				}
			}
			continue
		}
		vecs := make([]wordvec.Vector, len(a.InvisibleWords))
		for wi, idWords := range a.InvisibleWords {
			if len(idWords) == 0 {
				continue
			}
			vecs[wi] = s.vec.PhraseVector(idWords)
			stats.InvisibleRowsFresh++
		}
		info.invisibleVecs[gi] = vecs
	}
}

// deltaAPIs patches the framework-API inventory. The rescan set is the
// recompute set widened with every class invoking an added or removed class
// name (on either graph), because the app/framework classification of those
// classes' call sites can flip.
func (info *StaticInfo) deltaAPIs(s *Solver, prev *StaticInfo, g *apg.Graph, d *apk.ReleaseDelta, recompute map[string]struct{}) {
	hazard := make(map[string]struct{}, len(recompute))
	for c := range recompute {
		hazard[c] = struct{}{}
	}
	for _, name := range d.AddedClasses {
		for _, c := range prev.Graph.ClassesInvoking(name) {
			hazard[c] = struct{}{}
		}
		for _, c := range g.ClassesInvoking(name) {
			hazard[c] = struct{}{}
		}
	}
	for _, name := range d.RemovedClasses {
		for _, c := range prev.Graph.ClassesInvoking(name) {
			hazard[c] = struct{}{}
		}
		for _, c := range g.ClassesInvoking(name) {
			hazard[c] = struct{}{}
		}
	}

	// Rescan only the hazard classes, aggregated per API key. This is the
	// whole O(diff) part; everything outside it is inherited below.
	type agg struct {
		api     sdk.API
		classes map[string]struct{}
		prevHit bool // merged into a previous entry (not a new key)
	}
	hazardKeys := sortedKeys(hazard)
	rescan := make(map[string]*agg)
	for _, site := range g.FrameworkCallsIn(hazardKeys) {
		st := site.Statement()
		api, ok := s.catalog.LookupAPI(st.InvokeClass, st.InvokeMethod)
		if !ok {
			continue
		}
		key := api.Class + "." + api.Method
		a, exists := rescan[key]
		if !exists {
			a = &agg{api: api, classes: make(map[string]struct{})}
			rescan[key] = a
		}
		a.classes[site.Class()] = struct{}{}
	}

	// Walk the previous inventory (already sorted by key). An entry with no
	// hazard class and no rescanned sites is inherited wholesale — membership
	// could only change through a hazard class, so no per-entry set is built.
	type entry struct {
		key string
		use APIUse
	}
	entries := make([]entry, 0, len(prev.APIs)+len(rescan))
	for i := range prev.APIs {
		pu := &prev.APIs[i]
		key := pu.API.Class + "." + pu.API.Method
		add, rescanned := rescan[key]
		if !rescanned && !anyInSorted(pu.Classes, hazardKeys) {
			entries = append(entries, entry{key, APIUse{API: pu.API, Classes: pu.Classes,
				Phrases: pu.Phrases, PhraseVecs: pu.PhraseVecs}})
			continue
		}
		set := make(map[string]struct{}, len(pu.Classes))
		for _, c := range pu.Classes {
			if _, skip := hazard[c]; !skip {
				set[c] = struct{}{}
			}
		}
		if rescanned {
			add.prevHit = true
			for c := range add.classes {
				set[c] = struct{}{}
			}
		}
		if len(set) == 0 {
			continue
		}
		// The describing phrases are a pure function of the API entry: share
		// the previous embeddings.
		entries = append(entries, entry{key, APIUse{API: pu.API, Classes: sortedKeys(set),
			Phrases: pu.Phrases, PhraseVecs: pu.PhraseVecs}})
	}
	for key, a := range rescan {
		if a.prevHit || len(a.classes) == 0 {
			continue
		}
		use := APIUse{API: a.api, Classes: sortedKeys(a.classes)}
		for _, phrase := range apiPhrases(a.api) {
			use.Phrases = append(use.Phrases, phrase)
			use.PhraseVecs = append(use.PhraseVecs, s.vec.PhraseVector(phrase))
		}
		entries = append(entries, entry{key, use})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	info.APIs = make([]APIUse, len(entries))
	info.apiClasses = make(map[string][]string, len(entries))
	for i := range entries {
		info.APIs[i] = entries[i].use
		info.apiClasses[entries[i].key] = entries[i].use.Classes
	}
}

// anyInSorted reports whether any of the (sorted, typically few) needles
// occurs in the sorted haystack — the membership probe behind every
// "can this inventory entry be inherited verbatim?" fast path.
func anyInSorted(haystack, needles []string) bool {
	for _, n := range needles {
		if i := sort.SearchStrings(haystack, n); i < len(haystack) && haystack[i] == n {
			return true
		}
	}
	return false
}

// deltaURIs patches the content-provider URI inventory. Entries with no
// recomputed class and no rescanned sites are inherited wholesale — their
// membership could only change through a recomputed class.
func (info *StaticInfo) deltaURIs(s *Solver, prev *StaticInfo, g *apg.Graph, recompute map[string]struct{}, recomputeKeys []string) {
	type agg struct {
		uri     sdk.URI
		classes map[string]struct{}
		prevHit bool
	}
	rescan := make(map[string]*agg)
	for _, q := range g.ContentQueriesIn(recomputeKeys) {
		for _, u := range q.URIs {
			perm, ok := s.catalog.URIPermission(u)
			if !ok {
				continue
			}
			a, exists := rescan[u]
			if !exists {
				a = &agg{uri: sdk.URI{URI: u, Permission: perm},
					classes: make(map[string]struct{})}
				rescan[u] = a
			}
			a.classes[q.Site.Class()] = struct{}{}
		}
	}
	type entry struct {
		key string
		use URIUse
	}
	entries := make([]entry, 0, len(prev.URIs)+len(rescan))
	for i := range prev.URIs {
		pu := &prev.URIs[i]
		key := pu.URI.URI
		add, rescanned := rescan[key]
		if !rescanned && !anyInSorted(pu.Classes, recomputeKeys) {
			entries = append(entries, entry{key, URIUse{URI: pu.URI, Nouns: pu.Nouns, Classes: pu.Classes}})
			continue
		}
		set := make(map[string]struct{}, len(pu.Classes))
		for _, c := range pu.Classes {
			if _, skip := recompute[c]; !skip {
				set[c] = struct{}{}
			}
		}
		if rescanned {
			add.prevHit = true
			for c := range add.classes {
				set[c] = struct{}{}
			}
		}
		if len(set) == 0 {
			continue
		}
		entries = append(entries, entry{key, URIUse{URI: pu.URI, Nouns: pu.Nouns, Classes: sortedKeys(set)}})
	}
	for key, a := range rescan {
		if a.prevHit || len(a.classes) == 0 {
			continue
		}
		entries = append(entries, entry{key, URIUse{
			URI:     a.uri,
			Nouns:   permissionNouns(s, a.uri.Permission),
			Classes: sortedKeys(a.classes),
		}})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	info.URIs = make([]URIUse, len(entries))
	for i := range entries {
		info.URIs[i] = entries[i].use
	}
}

// deltaIntents patches the dispatched-intent inventory; untouched entries
// are inherited wholesale (see deltaURIs).
func (info *StaticInfo) deltaIntents(s *Solver, prev *StaticInfo, g *apg.Graph, recompute map[string]struct{}, recomputeKeys []string) {
	var nounsFor map[string][]string // lazily built: only rescans need it
	catalogNouns := func(action string) ([]string, bool) {
		if nounsFor == nil {
			nounsFor = make(map[string][]string, len(s.catalog.Intents()))
			for _, in := range s.catalog.Intents() {
				nounsFor[in.Action] = in.Nouns
			}
		}
		nouns, known := nounsFor[action]
		return nouns, known
	}
	type agg struct {
		classes map[string]struct{}
		prevHit bool
	}
	rescan := make(map[string]*agg)
	for _, send := range g.IntentSendsIn(recomputeKeys) {
		for _, action := range send.Actions {
			if _, known := catalogNouns(action); !known {
				continue
			}
			a, exists := rescan[action]
			if !exists {
				a = &agg{classes: make(map[string]struct{})}
				rescan[action] = a
			}
			a.classes[send.Site.Class()] = struct{}{}
		}
	}
	type entry struct {
		key string
		use IntentUse
	}
	entries := make([]entry, 0, len(prev.Intents)+len(rescan))
	for i := range prev.Intents {
		pu := &prev.Intents[i]
		add, rescanned := rescan[pu.Action]
		if !rescanned && !anyInSorted(pu.Classes, recomputeKeys) {
			entries = append(entries, entry{pu.Action, IntentUse{Action: pu.Action, Nouns: pu.Nouns, Classes: pu.Classes}})
			continue
		}
		set := make(map[string]struct{}, len(pu.Classes))
		for _, c := range pu.Classes {
			if _, skip := recompute[c]; !skip {
				set[c] = struct{}{}
			}
		}
		if rescanned {
			add.prevHit = true
			for c := range add.classes {
				set[c] = struct{}{}
			}
		}
		if len(set) == 0 {
			continue
		}
		entries = append(entries, entry{pu.Action, IntentUse{Action: pu.Action, Nouns: pu.Nouns, Classes: sortedKeys(set)}})
	}
	for action, a := range rescan {
		if a.prevHit || len(a.classes) == 0 {
			continue
		}
		nouns, _ := catalogNouns(action)
		entries = append(entries, entry{action, IntentUse{
			Action:  action,
			Nouns:   nouns,
			Classes: sortedKeys(a.classes),
		}})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	info.Intents = make([]IntentUse, len(entries))
	for i := range entries {
		info.Intents[i] = entries[i].use
	}
}

// deltaMessages patches the user-visible message inventory; untouched
// entries are inherited wholesale (see deltaURIs).
func (info *StaticInfo) deltaMessages(prev *StaticInfo, g *apg.Graph, recompute map[string]struct{}, recomputeKeys []string) {
	rescan := make(map[string]map[string]struct{})
	for _, m := range g.ErrorMessagesIn(recomputeKeys) {
		for _, text := range m.Texts {
			set, ok := rescan[text]
			if !ok {
				set = make(map[string]struct{})
				rescan[text] = set
			}
			set[m.Site.Class()] = struct{}{}
		}
	}
	type entry struct {
		key string
		use MessageUse
	}
	entries := make([]entry, 0, len(prev.Messages)+len(rescan))
	for i := range prev.Messages {
		pm := &prev.Messages[i]
		add, rescanned := rescan[pm.Text]
		if !rescanned && !anyInSorted(pm.Classes, recomputeKeys) {
			entries = append(entries, entry{pm.Text, MessageUse{Text: pm.Text, Classes: pm.Classes}})
			continue
		}
		set := make(map[string]struct{}, len(pm.Classes))
		for _, c := range pm.Classes {
			if _, skip := recompute[c]; !skip {
				set[c] = struct{}{}
			}
		}
		if rescanned {
			delete(rescan, pm.Text)
			for c := range add {
				set[c] = struct{}{}
			}
		}
		if len(set) == 0 {
			continue
		}
		entries = append(entries, entry{pm.Text, MessageUse{Text: pm.Text, Classes: sortedKeys(set)}})
	}
	for text, set := range rescan {
		if len(set) == 0 {
			continue
		}
		entries = append(entries, entry{text, MessageUse{Text: text, Classes: sortedKeys(set)}})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	info.Messages = make([]MessageUse, len(entries))
	for i := range entries {
		info.Messages[i] = entries[i].use
	}
}

// deltaMethodPhrases rebuilds the method-phrase list in the graph's sorted
// method order, copying the previous phrases (words, embedding, summary
// flag) of every method in an untouched class and recomputing the rest.
//
// prev.MethodPhrases was emitted by walking its own graph's Methods() — the
// same qualified-name order g.Methods() follows, with a method's one or two
// rows adjacent — so a single merge cursor finds each method's previous
// rows without indexing all of them: entries ordered before the current
// method belong to removed (or renamed-away) methods and are skipped.
func (info *StaticInfo) deltaMethodPhrases(s *Solver, prev *StaticInfo, g *apg.Graph, recompute map[string]struct{}, stats *DeltaStats) {
	pms := prev.MethodPhrases
	pi := 0
	info.MethodPhrases = make([]MethodPhrase, 0, len(pms)+8)

	// Reused entries are copied in maximal contiguous prev runs (one
	// memmove), then only the Method pointers are rebound to this graph —
	// entire untouched stretches of the sorted order transfer this way.
	runStart := -1               // first prev row of the pending run
	var runMethods []*apk.Method // rebound Method per pending entry
	flush := func() {
		if runStart < 0 {
			return
		}
		off := len(info.MethodPhrases)
		info.MethodPhrases = append(info.MethodPhrases, pms[runStart:pi]...)
		for i, nm := range runMethods {
			info.MethodPhrases[off+i].Method = nm
		}
		stats.MethodRowsReused += len(runMethods)
		runStart = -1
		runMethods = runMethods[:0]
	}
	for _, m := range g.Methods() {
		if pi < len(pms) && apg.QualifiedLess(pms[pi].Method, m) {
			// Prev entries ordered before m (removed methods): the skip
			// breaks run contiguity, so flush first.
			flush()
			for pi < len(pms) && apg.QualifiedLess(pms[pi].Method, m) {
				pi++
			}
		}
		if _, touched := recompute[m.Class]; !touched {
			if runStart < 0 {
				runStart = pi
			}
			for pi < len(pms) && pms[pi].Method.Class == m.Class && pms[pi].Method.Name == m.Name {
				runMethods = append(runMethods, m)
				pi++
			}
			continue
		}
		flush()
		phrase := methodNamePhrase(m.Name, shortClassName(m.Class))
		if len(phrase) > 0 {
			info.MethodPhrases = append(info.MethodPhrases, MethodPhrase{
				Method: m,
				Words:  phrase,
				Vec:    s.vec.PhraseVector(phrase),
			})
			stats.MethodRowsFresh++
		}
		if s.summarizer != nil && (len(phrase) == 0 || s.summarizeAll) {
			if words := s.summarizer.Predict(m, 3); len(words) > 0 {
				info.MethodPhrases = append(info.MethodPhrases, MethodPhrase{
					Method:      m,
					Words:       words,
					Vec:         s.vec.PhraseVector(words),
					FromSummary: true,
				})
				stats.MethodRowsFresh++
			}
		}
	}
	flush()
}

// buildScanStateDelta is buildScanState with the static-text caches
// inherited from prev wherever their key is unchanged. The scan matrices are
// built exactly as buildScanState builds them, from the (already reused)
// embeddings.
func (info *StaticInfo) buildScanStateDelta(s *Solver, prev *StaticInfo) {
	info.buildMatrices()

	prevURIVec := make(map[string]wordvec.Vector, len(prev.URIs))
	for i := range prev.URIs {
		prevURIVec[prev.URIs[i].URI.URI] = prev.uriNounVecs[i]
	}
	info.uriNounVecs = make([]wordvec.Vector, len(info.URIs))
	for i := range info.URIs {
		if v, ok := prevURIVec[info.URIs[i].URI.URI]; ok {
			info.uriNounVecs[i] = v
		} else if len(info.URIs[i].Nouns) > 0 {
			info.uriNounVecs[i] = s.vec.PhraseVector(info.URIs[i].Nouns)
		}
	}

	prevIntentVecs := make(map[string][]wordvec.Vector, len(prev.Intents))
	for i := range prev.Intents {
		prevIntentVecs[prev.Intents[i].Action] = prev.intentNounVecs[i]
	}
	info.intentNounVecs = make([][]wordvec.Vector, len(info.Intents))
	for i := range info.Intents {
		if vecs, ok := prevIntentVecs[info.Intents[i].Action]; ok {
			info.intentNounVecs[i] = vecs
			continue
		}
		vecs := make([]wordvec.Vector, len(info.Intents[i].Nouns))
		for j, noun := range info.Intents[i].Nouns {
			vecs[j] = s.vec.PhraseVector([]string{noun})
		}
		info.intentNounVecs[i] = vecs
	}

	prevDescWords := make(map[string][]string, len(prev.APIs))
	for i := range prev.APIs {
		prevDescWords[prev.APIs[i].API.Class+"."+prev.APIs[i].API.Method] = prev.descWords[i]
	}
	info.descWords = make([][]string, len(info.APIs))
	for i := range info.APIs {
		key := info.APIs[i].API.Class + "." + info.APIs[i].API.Method
		if ws, ok := prevDescWords[key]; ok {
			info.descWords[i] = ws
		} else {
			info.descWords[i] = textproc.Words(info.APIs[i].API.Description)
		}
	}

	prevNorm := make(map[string]string, len(prev.Messages))
	for i := range prev.Messages {
		prevNorm[prev.Messages[i].Text] = prev.normMessages[i]
	}
	info.normMessages = make([]string, len(info.Messages))
	for i := range info.Messages {
		if n, ok := prevNorm[info.Messages[i].Text]; ok {
			info.normMessages[i] = n
		} else {
			info.normMessages[i] = normalizeMessage(info.Messages[i].Text)
		}
	}
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

// ApplyDelta computes and installs the extraction for newR by patching the
// extraction of prevR (computing that first if needed). It is safe for
// concurrent use; if the snapshot already holds newR the call is a no-op
// (Applied stays false in the returned stats).
func (sn *Snapshot) ApplyDelta(prevR, newR *apk.Release) *DeltaStats {
	stats := &DeltaStats{}
	prev := sn.StaticFor(prevR)
	sn.mu.Lock()
	e := sn.static[newR]
	if e == nil {
		e = &staticEntry{}
		sn.static[newR] = e
	}
	sn.mu.Unlock()
	e.once.Do(func() { e.info = sn.solver.extractStaticDelta(prev, newR, stats) })
	return stats
}

// PrecomputeDelta extracts every release of an app in version order,
// building the first from scratch and each subsequent one as a delta
// against its predecessor. The returned stats are parallel to
// app.Releases. Compared to Precompute this trades the cross-release
// fan-out for O(diff) work per version bump, which wins on the long
// release histories snapshot builders feed it.
func (sn *Snapshot) PrecomputeDelta(app *apk.App) []*DeltaStats {
	out := make([]*DeltaStats, len(app.Releases))
	for i, r := range app.Releases {
		if i == 0 {
			sn.StaticFor(r)
			out[i] = &DeltaStats{Applied: true, Full: true, Reason: "first release"}
			continue
		}
		out[i] = sn.ApplyDelta(app.Releases[i-1], r)
	}
	return out
}
