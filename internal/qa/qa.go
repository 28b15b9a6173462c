// Package qa implements the general-task knowledge base of §4.2.2: a Stack
// Overflow-style Q&A corpus (question titles + Java code snippets), a
// javalang-like snippet parser that extracts the framework APIs each
// snippet calls, and the Algorithm 2 index that maps a review verb phrase
// to the top-k framework APIs developers use for that task.
//
// The original downloads 1.27M Android questions from the Stack Exchange
// dump; this reproduction generates a corpus from task templates over the
// same SDK catalog the synthetic apps call, so the title→API frequency
// statistics are meaningful for the tasks reviews complain about.
package qa

import (
	"slices"
	"strings"

	"reviewsolver/internal/sdk"
	"reviewsolver/internal/textproc"
)

// Question is one Q&A thread: a short title and the code snippets found in
// the question body and its answers.
type Question struct {
	// Title summarizes the problem ("How to download a file in Android").
	Title string
	// Snippets holds the raw Java code blocks (<code> contents).
	Snippets []string
}

// APIRef identifies a framework API extracted from a snippet.
type APIRef struct {
	Class  string
	Method string
}

// Key returns "class.method".
func (r APIRef) Key() string { return r.Class + "." + r.Method }

// ParseSnippet extracts the framework API calls from a Java-like code
// snippet, the role javalang plays in the paper (§4.2.2 Step 2). It tracks
// `Type var = new Type(...)` and `Type var = ...` declarations to resolve
// receiver variables to classes, and resolves short class names against the
// SDK catalog.
func ParseSnippet(snippet string, catalog *sdk.Catalog) []APIRef {
	return parseSnippet(snippet, catalog, shortClassIndex(catalog))
}

// parseSnippet is ParseSnippet over a prebuilt shortClassIndex(catalog), so
// NewIndex builds the short-name map once rather than once per snippet.
func parseSnippet(snippet string, catalog *sdk.Catalog, shortToFull map[string]string) []APIRef {
	varType := make(map[string]string)
	var out []APIRef
	seen := make(map[string]struct{})
	for _, line := range strings.Split(snippet, "\n") {
		line = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(line), ";"))
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		// Declarations: "Type name = ..." (optionally "new Type(...)").
		if class, name, rest, ok := parseDecl(line); ok {
			if full, known := shortToFull[class]; known {
				varType[name] = full
			}
			line = rest // the initializer may itself contain a call
			if line == "" {
				continue
			}
		}
		// Calls: receiver.method(...) — receiver is a variable or a class.
		for _, call := range parseCalls(line) {
			class := varType[call.recv]
			if class == "" {
				if full, known := shortToFull[call.recv]; known {
					class = full
				}
			}
			if class == "" {
				continue
			}
			if _, known := catalog.LookupAPI(class, call.method); !known {
				continue
			}
			ref := APIRef{Class: class, Method: call.method}
			if _, dup := seen[ref.Key()]; dup {
				continue
			}
			seen[ref.Key()] = struct{}{}
			out = append(out, ref)
		}
	}
	return out
}

func shortClassIndex(catalog *sdk.Catalog) map[string]string {
	idx := make(map[string]string)
	for _, a := range catalog.APIs() {
		short := a.ShortClass()
		idx[short] = a.Class
		// Inner classes are written without the '$' in snippets
		// ("AlertDialogBuilder" for AlertDialog$Builder).
		if strings.ContainsRune(short, '$') {
			idx[strings.ReplaceAll(short, "$", "")] = a.Class
		}
	}
	return idx
}

// parseDecl recognizes "Type name = rest" and returns the parts.
func parseDecl(line string) (class, name, rest string, ok bool) {
	eq := strings.Index(line, "=")
	if eq < 0 {
		return "", "", "", false
	}
	left := strings.Fields(strings.TrimSpace(line[:eq]))
	if len(left) != 2 {
		return "", "", "", false
	}
	class, name = left[0], left[1]
	if !isIdentifier(class) || !isIdentifier(name) || !isUpperStart(class) {
		return "", "", "", false
	}
	rest = strings.TrimSpace(line[eq+1:])
	rest = strings.TrimPrefix(rest, "new ")
	return class, name, rest, true
}

type callExpr struct {
	recv, method string
}

// parseCalls finds "recv.method(" occurrences in a line.
func parseCalls(line string) []callExpr {
	var out []callExpr
	for i := 0; i < len(line); i++ {
		if line[i] != '(' {
			continue
		}
		// Walk back over the method name.
		j := i
		for j > 0 && isIdentChar(line[j-1]) {
			j--
		}
		if j == i || j == 0 || line[j-1] != '.' {
			continue
		}
		method := line[j:i]
		// Walk back over the receiver.
		k := j - 1
		for k > 0 && isIdentChar(line[k-1]) {
			k--
		}
		recv := line[k : j-1]
		if recv == "" {
			continue
		}
		out = append(out, callExpr{recv: recv, method: method})
	}
	return out
}

func isIdentifier(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isIdentChar(s[i]) {
			return false
		}
	}
	return true
}

func isIdentChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

func isUpperStart(s string) bool { return s != "" && s[0] >= 'A' && s[0] <= 'Z' }

// Index is the Algorithm 2 lookup structure: an inverted index from title
// stems to questions, and each question's extracted framework APIs.
type Index struct {
	// postings maps a title-word stem to the ascending IDs of the
	// questions whose titles contain a word with that stem.
	postings map[string][]int32
	// questions holds each question's API IDs, one entry per question.
	questions [][]int32
	// apis maps an API ID to its ref; IDs ascend with Key(), so ordering
	// by ID breaks frequency ties exactly as ordering by key does.
	apis []APIRef
}

// NewIndex parses every question's snippets and builds the index. Questions
// whose snippets call no known framework API are left out.
func NewIndex(catalog *sdk.Catalog, questions []Question) *Index {
	shortToFull := shortClassIndex(catalog)
	idx := &Index{postings: make(map[string][]int32)}
	byKey := make(map[string]APIRef)
	var apiKeys [][]string // per indexed question: its distinct API keys
	for _, q := range questions {
		var keys []string
		seen := make(map[string]struct{})
		for _, sn := range q.Snippets {
			for _, ref := range parseSnippet(sn, catalog, shortToFull) {
				key := ref.Key()
				if _, dup := seen[key]; dup {
					continue
				}
				seen[key] = struct{}{}
				byKey[key] = ref
				keys = append(keys, key)
			}
		}
		if len(keys) == 0 {
			continue
		}
		qid := int32(len(apiKeys))
		apiKeys = append(apiKeys, keys)
		for _, w := range textproc.Words(q.Title) {
			st := stem(w)
			p := idx.postings[st]
			// Question IDs arrive in ascending order, so a repeated stem
			// in one title can only repeat the last entry.
			if n := len(p); n == 0 || p[n-1] != qid {
				idx.postings[st] = append(p, qid)
			}
		}
	}

	sorted := make([]string, 0, len(byKey))
	for key := range byKey {
		sorted = append(sorted, key)
	}
	slices.Sort(sorted)
	idx.apis = make([]APIRef, len(sorted))
	apiID := make(map[string]int32, len(sorted))
	for id, key := range sorted {
		apiID[key] = int32(id)
		idx.apis[id] = byKey[key]
	}
	idx.questions = make([][]int32, len(apiKeys))
	for qid, keys := range apiKeys {
		ids := make([]int32, len(keys))
		for i, key := range keys {
			ids[i] = apiID[key]
		}
		idx.questions[qid] = ids
	}
	return idx
}

// Len returns the number of indexed questions.
func (x *Index) Len() int { return len(x.questions) }

// TopAPIs implements Algorithm 2: find the questions whose titles contain
// the verb phrase's words, count the framework APIs in their snippets, and
// return the k most frequent APIs (the paper sets k = 5), ties broken by
// ascending Key.
func (x *Index) TopAPIs(verbPhrase []string, k int) []APIRef {
	if len(verbPhrase) == 0 || k <= 0 {
		return nil
	}
	counts := make([]int32, len(x.apis))
	var hit []int32 // API IDs with a non-zero count, in first-seen order
	for _, q := range x.matches(verbPhrase) {
		for _, a := range x.questions[q] {
			if counts[a] == 0 {
				hit = append(hit, a)
			}
			counts[a]++
		}
	}
	if len(hit) == 0 {
		return nil
	}
	slices.SortFunc(hit, func(a, b int32) int {
		if counts[a] != counts[b] {
			return int(counts[b] - counts[a])
		}
		return int(a - b)
	})
	out := make([]APIRef, min(k, len(hit)))
	for i := range out {
		out[i] = x.apis[hit[i]]
	}
	return out
}

// matches returns the ascending IDs of the questions whose titles contain
// the phrase (§4.2.2: "identify the questions whose titles contain the same
// verb phrase"): every non-stopword phrase word must share its stem with a
// title word, which tolerates inflection differences. A phrase of stopwords
// alone matches every question.
func (x *Index) matches(phrase []string) []int32 {
	var ids []int32
	narrowed := false
	for _, w := range phrase {
		if textproc.IsStopword(w) {
			continue
		}
		p := x.postings[stem(w)]
		switch {
		case len(p) == 0:
			return nil
		case narrowed:
			ids = intersect(ids, p)
		default:
			ids, narrowed = p, true
		}
	}
	if !narrowed {
		ids = make([]int32, len(x.questions))
		for i := range ids {
			ids[i] = int32(i)
		}
	}
	return ids
}

// intersect returns the IDs present in both ascending lists, in a new slice
// (a and b may be postings, which are never written).
func intersect(a, b []int32) []int32 {
	out := make([]int32, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func stem(w string) string {
	switch {
	case strings.HasSuffix(w, "ing") && len(w) > 5:
		w = w[:len(w)-3]
	case strings.HasSuffix(w, "ed") && len(w) > 4:
		w = w[:len(w)-2]
	case strings.HasSuffix(w, "es") && len(w) > 4:
		w = w[:len(w)-2]
	case strings.HasSuffix(w, "s") && len(w) > 3 && !strings.HasSuffix(w, "ss"):
		w = w[:len(w)-1]
	}
	if len(w) > 3 && w[len(w)-1] == w[len(w)-2] && !strings.ContainsRune("aeiou", rune(w[len(w)-1])) {
		w = w[:len(w)-1]
	}
	return w
}
