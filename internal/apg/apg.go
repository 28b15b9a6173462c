// Package apg builds the Android Property Graph of §3.3.2 over the app IR:
// the abstract syntax tree is the statement list itself, and this package
// adds the method call graph (MCG), the data dependency graph (DDG) with
// backward taint analysis, intent-target queries (the IccTA role), and the
// class dependency relation used for ranking ties (§4.3).
package apg

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"sync"

	"reviewsolver/internal/apk"
)

// Site identifies one statement inside a method.
type Site struct {
	// Method is the enclosing method.
	Method *apk.Method
	// StmtIdx is the statement's index within the method body.
	StmtIdx int
}

// Statement returns the statement at the site.
func (s Site) Statement() apk.Statement { return s.Method.Statements[s.StmtIdx] }

// Class returns the fully qualified class owning the site.
func (s Site) Class() string { return s.Method.Class }

// ref names a method as (class, method) without concatenating the pair —
// the graph's maps key on it so Build never builds qualified-name strings
// for the hot framework-call case.
type ref struct{ class, method string }

// Graph is the property graph of one release.
type Graph struct {
	release *apk.Release
	// methods indexes app methods by (class, method).
	methods map[ref]*apk.Method
	// callSites indexes invocation sites by callee (class, method).
	callSites map[ref][]Site
	// declared indexes every method declaration by its class, in
	// declaration order, shadowed duplicates included.
	declared map[string][]*apk.Method
	// mcgOnce guards the lazy MCG structures below: no extraction phase
	// reads them, so Build keeps them off the snapshot-rebuild critical
	// path and the first ranking query pays the derivation once per graph.
	mcgOnce sync.Once
	// callers is the MCG edge list restricted to app methods, keyed and
	// valued by qualified name (the form ranking consumes).
	callers map[string][]string
	// classDeps maps a class to the set of app classes it invokes.
	classDeps map[string]map[string]struct{}

	// methodsSorted memoizes Methods(): the sort is O(n log n) with a
	// string comparator and three extraction passes used to pay it each.
	methodsOnce   sync.Once
	methodsSorted []*apk.Method
}

// Build constructs the graph for a release.
func Build(r *apk.Release) *Graph {
	methodCount := 0
	for _, c := range r.Classes {
		methodCount += len(c.Methods)
	}
	g := &Graph{
		release:   r,
		methods:   make(map[ref]*apk.Method, methodCount),
		callSites: make(map[ref][]Site, methodCount),
		declared:  make(map[string][]*apk.Method, len(r.Classes)),
	}
	for _, c := range r.Classes {
		for _, m := range c.Methods {
			g.methods[ref{m.Class, m.Name}] = m
			for i := range m.Statements {
				st := &m.Statements[i]
				if st.Op != apk.OpInvoke {
					continue
				}
				k := ref{st.InvokeClass, st.InvokeMethod}
				g.callSites[k] = append(g.callSites[k], Site{Method: m, StmtIdx: i})
			}
		}
		g.declare(c.Methods)
	}
	return g
}

// declare indexes a class's method declarations under their owning class
// names with one map write per run of methods sharing a class — the whole
// class in well-formed IR. A run aliases the release's slice, capped so a
// later append for the same class copies instead of writing into it.
func (g *Graph) declare(ms []*apk.Method) {
	for len(ms) > 0 {
		n := 1
		for n < len(ms) && ms[n].Class == ms[0].Class {
			n++
		}
		if prev, ok := g.declared[ms[0].Class]; ok {
			g.declared[ms[0].Class] = append(prev, ms[:n]...)
		} else {
			g.declared[ms[0].Class] = ms[:n:n]
		}
		ms = ms[n:]
	}
}

// mcg derives the app-internal MCG edges and the class dependency relation
// from the call-site index, once, on first ranking-time use. Edge
// multiplicity matches the eager construction (one edge per invocation
// site), and every accessor sorts or counts, so the map-iteration build
// order never reaches a caller.
func (g *Graph) mcg() {
	g.mcgOnce.Do(func() {
		appClasses := make(map[string]struct{}, len(g.release.Classes))
		for _, c := range g.release.Classes {
			appClasses[c.Name] = struct{}{}
		}
		g.callers = make(map[string][]string)
		g.classDeps = make(map[string]map[string]struct{})
		// fromName interns each caller's qualified name: one concatenation
		// per method with app-internal callees, not one per site.
		fromName := make(map[*apk.Method]string)
		for k, sites := range g.callSites {
			if _, isApp := appClasses[k.class]; !isApp {
				continue
			}
			callee := k.class + "." + k.method
			for _, s := range sites {
				from, ok := fromName[s.Method]
				if !ok {
					from = s.Method.QualifiedName()
					fromName[s.Method] = from
				}
				g.callers[callee] = append(g.callers[callee], from)
				if k.class != s.Method.Class {
					deps, ok := g.classDeps[s.Method.Class]
					if !ok {
						deps = make(map[string]struct{})
						g.classDeps[s.Method.Class] = deps
					}
					deps[k.class] = struct{}{}
				}
			}
		}
	})
}

// Release returns the release the graph was built from.
func (g *Graph) Release() *apk.Release { return g.release }

// Method returns the app method with the given qualified name. Method names
// never contain '.', so the last dot splits class from method.
func (g *Graph) Method(qualified string) (*apk.Method, bool) {
	i := strings.LastIndexByte(qualified, '.')
	if i < 0 {
		return nil, false
	}
	return g.MethodRef(qualified[:i], qualified[i+1:])
}

// MethodRef returns the app method declared on class with the given name.
func (g *Graph) MethodRef(class, name string) (*apk.Method, bool) {
	m, ok := g.methods[ref{class, name}]
	return m, ok
}

// Methods returns all app methods, sorted by qualified name. The sorted
// slice is memoized (several extraction passes iterate it); callers must
// treat it as read-only.
func (g *Graph) Methods() []*apk.Method {
	g.methodsOnce.Do(func() {
		classes := make([]string, 0, len(g.declared))
		for c := range g.declared {
			classes = append(classes, c)
		}
		slices.SortFunc(classes, classKeyCompare)
		out := make([]*apk.Method, 0, len(g.methods))
		for _, c := range classes {
			out = g.appendClassMethods(out, c)
		}
		// Ordering classes by name + "." orders their methods' qualified
		// names too, unless one class name extends another past a "."
		// ("a.b" and "a.b.c"), whose methods can interleave. The sort fixes
		// those and costs one linear pass on already-sorted input.
		slices.SortFunc(out, qualifiedCompare)
		g.methodsSorted = out
	})
	return g.methodsSorted
}

// DeclaredMethods returns every method declared on class in declaration
// order, shadowed duplicate declarations included — the declarations the
// call-site index covers. Callers must treat the slice as read-only.
func (g *Graph) DeclaredMethods(class string) []*apk.Method { return g.declared[class] }

// ClassMethods returns the class's methods in Methods() order: one per name
// (the last declaration wins, as in MethodRef), sorted by name.
func (g *Graph) ClassMethods(class string) []*apk.Method {
	return g.appendClassMethods(nil, class)
}

// appendClassMethods appends ClassMethods(class) to dst.
func (g *Graph) appendClassMethods(dst []*apk.Method, class string) []*apk.Method {
	start := len(dst)
	dst = append(dst, g.declared[class]...)
	own := dst[start:]
	byName := func(a, b *apk.Method) int { return strings.Compare(a.Name, b.Name) }
	slices.SortFunc(own, byName)
	if n := len(own); n > 0 {
		own = slices.CompactFunc(own, func(a, b *apk.Method) bool { return a.Name == b.Name })
		if len(own) < n {
			// Duplicate declarations: keep the one the graph resolves to.
			for i, m := range own {
				own[i] = g.methods[ref{class, m.Name}]
			}
		}
	}
	return dst[:start+len(own)]
}

// classKeyCompare orders class names as their name + "." strings compare,
// without building them.
func classKeyCompare(a, b string) int {
	n := min(len(a), len(b))
	if c := strings.Compare(a[:n], b[:n]); c != 0 || len(a) == len(b) {
		return c
	}
	if len(a) < len(b) {
		return cmp.Compare('.', b[n])
	}
	return cmp.Compare(a[n], '.')
}

// QualifiedLess reports whether a orders before b by qualified method name
// — the comparator behind Methods(). Exported so a merge cursor over rows
// emitted in Methods() order can follow a later graph's Methods().
func QualifiedLess(a, b *apk.Method) bool { return qualifiedLess(a, b) }

// qualifiedLess orders methods exactly as comparing their QualifiedName
// strings would, without building them.
func qualifiedLess(a, b *apk.Method) bool { return qualifiedCompare(a, b) < 0 }

// qualifiedCompare three-way compares two methods' QualifiedName strings
// without building them. The slow byte-walk only runs when one class name
// is a proper prefix of the other (where the shorter side reads "." + its
// method name against the rest of the longer class name).
func qualifiedCompare(a, b *apk.Method) int {
	ac, bc := a.Class, b.Class
	if ac == bc {
		return strings.Compare(a.Name, b.Name)
	}
	n := min(len(ac), len(bc))
	if c := strings.Compare(ac[:n], bc[:n]); c != 0 {
		return c
	}
	if len(ac) < len(bc) {
		return catCompare([]string{".", a.Name}, []string{bc[n:], ".", b.Name})
	}
	return catCompare([]string{ac[n:], ".", a.Name}, []string{".", b.Name})
}

// catCompare three-way compares the virtual concatenations of two segment
// lists.
func catCompare(a, b []string) int {
	var ai, aoff, bi, boff int
	for {
		for ai < len(a) && aoff == len(a[ai]) {
			ai++
			aoff = 0
		}
		for bi < len(b) && boff == len(b[bi]) {
			bi++
			boff = 0
		}
		switch {
		case ai == len(a) && bi == len(b):
			return 0
		case ai == len(a):
			return -1
		case bi == len(b):
			return 1
		}
		if ca, cb := a[ai][aoff], b[bi][boff]; ca != cb {
			return int(ca) - int(cb)
		}
		aoff++
		boff++
	}
}

// CallSitesOf returns every invocation site of class.method (framework API
// or app method), in deterministic order.
func (g *Graph) CallSitesOf(class, method string) []Site {
	sites := g.callSites[ref{class, method}]
	out := make([]Site, len(sites))
	copy(out, sites)
	sort.Slice(out, func(i, j int) bool {
		mi, mj := out[i].Method, out[j].Method
		if mi.Class != mj.Class || mi.Name != mj.Name {
			return qualifiedLess(mi, mj)
		}
		return out[i].StmtIdx < out[j].StmtIdx
	})
	return out
}

// ClassesCalling returns the distinct app classes that invoke class.method.
func (g *Graph) ClassesCalling(class, method string) []string {
	set := make(map[string]struct{})
	for _, s := range g.callSites[ref{class, method}] {
		set[s.Class()] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Callers returns the app methods that call the given app method.
func (g *Graph) Callers(qualified string) []string {
	g.mcg()
	out := append([]string(nil), g.callers[qualified]...)
	sort.Strings(out)
	return out
}

// ClassDependencyCount returns how many distinct app classes the given
// class invokes. Ranking uses it to break importance ties (§4.3): a class
// built on many others more likely implements a core function.
func (g *Graph) ClassDependencyCount(class string) int {
	g.mcg()
	return len(g.classDeps[class])
}

// BackwardStrings performs the backward taint walk of §3.3.2: starting from
// the uses of the statement at the site, it follows the data dependency
// graph (def → use chains) backwards until statements that create new
// values, and records every string constant encountered on the path.
func (g *Graph) BackwardStrings(site Site) []string {
	stmts := site.Method.Statements
	start := stmts[site.StmtIdx]
	pending := append([]string(nil), start.Uses...)
	seenVar := make(map[string]struct{}, len(pending))
	var out []string
	for len(pending) > 0 {
		v := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		if _, dup := seenVar[v]; dup || v == "" {
			continue
		}
		seenVar[v] = struct{}{}
		// Find the latest definition of v before the site.
		for i := site.StmtIdx - 1; i >= 0; i-- {
			st := stmts[i]
			if st.Def != v {
				continue
			}
			switch st.Op {
			case apk.OpConstString:
				out = append(out, st.Const)
			case apk.OpAssign, apk.OpInvoke:
				pending = append(pending, st.Uses...)
			case apk.OpNew:
				// Sink: statement that creates a new variable.
			}
			break
		}
	}
	// Deterministic order.
	sort.Strings(out)
	return out
}

// intentSendAPIs are the framework entry points that dispatch intents
// (§3.3.2: "we first collect all intent related statements").
var intentSendAPIs = []struct{ class, method string }{
	{"android.app.Activity", "startActivity"},
	{"android.app.Activity", "startActivityForResult"},
	{"android.content.Context", "startActivity"},
	{"android.content.Context", "startService"},
	{"android.content.Context", "sendBroadcast"},
}

// IntentSend records an intent dispatched by the app with the action
// string(s) recovered by backward taint.
type IntentSend struct {
	// Actions are the intent action strings found on the taint path.
	Actions []string
	// Site is the dispatching statement.
	Site Site
}

// IntentSends finds all intent dispatch sites and recovers their action
// strings.
func (g *Graph) IntentSends() []IntentSend {
	var out []IntentSend
	for _, api := range intentSendAPIs {
		for _, site := range g.CallSitesOf(api.class, api.method) {
			actions := g.BackwardStrings(site)
			if len(actions) == 0 {
				continue
			}
			out = append(out, IntentSend{Actions: actions, Site: site})
		}
	}
	return out
}

// ContentQuery records a content-provider access with its URI string(s).
type ContentQuery struct {
	URIs []string
	Site Site
}

// contentResolverMethods are the provider operations of §3.3.2.
var contentResolverMethods = []string{"query", "insert", "update", "delete"}

// ContentQueries finds content-provider operations and recovers the URI
// strings flowing into them.
func (g *Graph) ContentQueries() []ContentQuery {
	var out []ContentQuery
	for _, m := range contentResolverMethods {
		for _, site := range g.CallSitesOf("android.content.ContentResolver", m) {
			uris := g.BackwardStrings(site)
			if len(uris) == 0 {
				continue
			}
			out = append(out, ContentQuery{URIs: uris, Site: site})
		}
	}
	return out
}

// MessageSite records a user-visible message raised by the app with the
// string(s) recovered by backward taint.
type MessageSite struct {
	Texts []string
	Site  Site
}

// errorMessageAPIs are the notification APIs of §3.3.2 (AlertDialog,
// TextView, Toast).
var errorMessageAPIs = []struct{ class, method string }{
	{"android.app.AlertDialog$Builder", "setTitle"},
	{"android.app.AlertDialog$Builder", "setMessage"},
	{"android.widget.TextView", "setError"},
	{"android.widget.Toast", "makeText"},
	{"android.app.NotificationManager", "notify"},
}

// ErrorMessages finds the user-visible message sites and recovers their
// text.
func (g *Graph) ErrorMessages() []MessageSite {
	var out []MessageSite
	for _, api := range errorMessageAPIs {
		for _, site := range g.CallSitesOf(api.class, api.method) {
			texts := g.BackwardStrings(site)
			if len(texts) == 0 {
				continue
			}
			out = append(out, MessageSite{Texts: texts, Site: site})
		}
	}
	return out
}

// ExceptionSite records a throw or catch of an exception type.
type ExceptionSite struct {
	Exception string
	Caught    bool
	Site      Site
}

// ExceptionSites lists every throw/catch in the app (§4.2.3 Step 1 for
// developer-defined methods).
func (g *Graph) ExceptionSites() []ExceptionSite {
	var out []ExceptionSite
	for _, m := range g.Methods() {
		for i := range m.Statements {
			st := &m.Statements[i]
			switch st.Op {
			case apk.OpThrow:
				out = append(out, ExceptionSite{Exception: st.Exception,
					Site: Site{Method: m, StmtIdx: i}})
			case apk.OpCatch:
				out = append(out, ExceptionSite{Exception: st.Exception, Caught: true,
					Site: Site{Method: m, StmtIdx: i}})
			}
		}
	}
	return out
}

// FrameworkCallees calls yield once per distinct framework callee — an
// invoked (class, method) whose class is not an app class — with its
// invocation sites in build order: the API usage inventory of §3.3.2. The
// callee order is unspecified; sites must be treated as read-only.
func (g *Graph) FrameworkCallees(yield func(class, method string, sites []Site)) {
	for k, sites := range g.callSites {
		if _, isApp := g.release.FindClass(k.class); !isApp {
			yield(k.class, k.method, sites)
		}
	}
}
