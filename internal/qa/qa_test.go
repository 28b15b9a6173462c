package qa

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"reviewsolver/internal/sdk"
	"reviewsolver/internal/textproc"
)

func TestParseSnippet(t *testing.T) {
	catalog := sdk.NewCatalog()
	snippet := `
// send a text message
SmsManager sms = SmsManager.getDefault();
sms.sendTextMessage(number, null, text, null, null);
Socket sock = new Socket();
sock.connect(addr);
unknownVar.someCall();
`
	refs := ParseSnippet(snippet, catalog)
	want := []APIRef{
		{Class: "android.telephony.SmsManager", Method: "sendTextMessage"},
		{Class: "java.net.Socket", Method: "connect"},
	}
	if !reflect.DeepEqual(refs, want) {
		t.Errorf("ParseSnippet = %v, want %v", refs, want)
	}
}

func TestParseSnippetStaticCall(t *testing.T) {
	catalog := sdk.NewCatalog()
	refs := ParseSnippet("Toast.makeText(ctx, msg, 0);", catalog)
	if len(refs) != 1 || refs[0].Method != "makeText" {
		t.Errorf("static call parse = %v", refs)
	}
}

func TestParseSnippetDedup(t *testing.T) {
	catalog := sdk.NewCatalog()
	refs := ParseSnippet("Socket s = new Socket();\ns.connect(a);\ns.connect(b);", catalog)
	if len(refs) != 1 {
		t.Errorf("duplicate API not deduplicated: %v", refs)
	}
}

func TestGenerateCorpus(t *testing.T) {
	catalog := sdk.NewCatalog()
	corpus := GenerateCorpus(catalog)
	if len(corpus) < 50 {
		t.Errorf("corpus suspiciously small: %d questions", len(corpus))
	}
	// Every generated snippet must parse to at least one API.
	for _, q := range corpus {
		refs := ParseSnippet(q.Snippets[0], catalog)
		if len(refs) == 0 {
			t.Errorf("question %q has unparseable snippet:\n%s", q.Title, q.Snippets[0])
		}
	}
}

func TestIndexTopAPIs(t *testing.T) {
	catalog := sdk.NewCatalog()
	idx := NewIndex(catalog, GenerateCorpus(catalog))
	if idx.Len() == 0 {
		t.Fatal("empty index")
	}

	// §2.3 Example 6: "404 error" should surface WebView.loadUrl among the
	// top APIs.
	apis := idx.TopAPIs([]string{"404", "error"}, 5)
	found := false
	for _, a := range apis {
		if a.Class == "android.webkit.WebView" && a.Method == "loadUrl" {
			found = true
		}
	}
	if !found {
		t.Errorf("404 error top APIs = %v, want WebView.loadUrl included", apis)
	}

	// "download file" must surface connection/file APIs.
	apis = idx.TopAPIs([]string{"download", "file"}, 5)
	if len(apis) == 0 {
		t.Fatal("no APIs for 'download file'")
	}

	// Inflected phrase ("downloading files") matches via stemming.
	apis2 := idx.TopAPIs([]string{"downloading", "files"}, 5)
	if len(apis2) == 0 {
		t.Error("stemmed phrase found no APIs")
	}
}

func TestTopAPIsKBound(t *testing.T) {
	catalog := sdk.NewCatalog()
	idx := NewIndex(catalog, GenerateCorpus(catalog))
	apis := idx.TopAPIs([]string{"download", "file"}, 2)
	if len(apis) > 2 {
		t.Errorf("k=2 returned %d APIs", len(apis))
	}
	if got := idx.TopAPIs(nil, 5); got != nil {
		t.Errorf("empty phrase returned %v", got)
	}
	if got := idx.TopAPIs([]string{"zzz", "qqq"}, 5); got != nil {
		t.Errorf("unknown phrase returned %v", got)
	}
}

func TestTopAPIsDeterministic(t *testing.T) {
	catalog := sdk.NewCatalog()
	idx := NewIndex(catalog, GenerateCorpus(catalog))
	a := idx.TopAPIs([]string{"save", "photos"}, 5)
	b := idx.TopAPIs([]string{"save", "photos"}, 5)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("non-deterministic: %v vs %v", a, b)
	}
}

func TestAPIRefKey(t *testing.T) {
	r := APIRef{Class: "java.net.Socket", Method: "connect"}
	if r.Key() != "java.net.Socket.connect" {
		t.Errorf("Key = %q", r.Key())
	}
}

func TestTaskCount(t *testing.T) {
	if TaskCount() < 20 {
		t.Errorf("only %d task templates", TaskCount())
	}
}

// scanIndex is the linear-scan Algorithm 2 the postings index replaced,
// kept as the oracle TopAPIs must match: every lookup checks every question
// and re-stems every title word against every phrase word.
type scanIndex struct {
	questions []scanQuestion
}

type scanQuestion struct {
	titleWords map[string]struct{}
	apis       []APIRef
}

func newScanIndex(catalog *sdk.Catalog, questions []Question) *scanIndex {
	idx := &scanIndex{}
	for _, q := range questions {
		sq := scanQuestion{titleWords: make(map[string]struct{})}
		for _, w := range textproc.Words(q.Title) {
			sq.titleWords[w] = struct{}{}
		}
		seen := make(map[string]struct{})
		for _, sn := range q.Snippets {
			for _, ref := range ParseSnippet(sn, catalog) {
				if _, dup := seen[ref.Key()]; dup {
					continue
				}
				seen[ref.Key()] = struct{}{}
				sq.apis = append(sq.apis, ref)
			}
		}
		if len(sq.apis) > 0 {
			idx.questions = append(idx.questions, sq)
		}
	}
	return idx
}

func (x *scanIndex) TopAPIs(verbPhrase []string, k int) []APIRef {
	if len(verbPhrase) == 0 || k <= 0 {
		return nil
	}
	counts := make(map[string]int)
	byKey := make(map[string]APIRef)
	for _, q := range x.questions {
		if !titleContains(q.titleWords, verbPhrase) {
			continue
		}
		for _, ref := range q.apis {
			counts[ref.Key()]++
			byKey[ref.Key()] = ref
		}
	}
	if len(counts) == 0 {
		return nil
	}
	keys := make([]string, 0, len(counts))
	for key := range counts {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if k > len(keys) {
		k = len(keys)
	}
	out := make([]APIRef, k)
	for i := 0; i < k; i++ {
		out[i] = byKey[keys[i]]
	}
	return out
}

func titleContains(title map[string]struct{}, phrase []string) bool {
	for _, w := range phrase {
		if textproc.IsStopword(w) {
			continue
		}
		if _, ok := title[w]; ok {
			continue
		}
		matched := false
		for tw := range title {
			if stem(tw) == stem(w) {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	return true
}

// oracleFixture builds the postings index and the scan oracle over the
// generated corpus, plus the corpus's distinct title words in sorted order.
func oracleFixture(tb testing.TB) (*Index, *scanIndex, []string) {
	tb.Helper()
	catalog := sdk.NewCatalog()
	// Beyond the generated corpus: a title that repeats a stem, and a
	// question whose snippet calls no known API and so is never indexed.
	corpus := append(GenerateCorpus(catalog),
		Question{Title: "Copy file to file: files, filed, file saving", Snippets: []string{
			"FileOutputStream out = new FileOutputStream(f);\nout.write(b);",
			"Socket s = new Socket();\ns.connect(a);",
		}},
		Question{Title: "Download file without any framework call", Snippets: []string{"helper.run();"}},
	)
	set := make(map[string]struct{})
	for _, q := range corpus {
		for _, w := range textproc.Words(q.Title) {
			set[w] = struct{}{}
		}
	}
	words := make([]string, 0, len(set))
	for w := range set {
		words = append(words, w)
	}
	sort.Strings(words)
	return NewIndex(catalog, corpus), newScanIndex(catalog, corpus), words
}

func TestTopAPIsMatchesScan(t *testing.T) {
	idx, oracle, titleWords := oracleFixture(t)
	// Every title word and its inflected variants, so stems that only an
	// inflection reaches are exercised too.
	var vocab []string
	for _, w := range titleWords {
		vocab = append(vocab, w, w+"s", w+"ed", w+"ing")
	}
	vocab = append(vocab, "", "zzz", "qqq", "Download", "FILES", "the", "a", "it")
	check := func(phrase []string, k int) {
		t.Helper()
		got, want := idx.TopAPIs(phrase, k), oracle.TopAPIs(phrase, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TopAPIs(%q, %d) = %v, scan = %v", phrase, k, got, want)
		}
	}
	for _, w := range vocab {
		for k := 1; k <= 6; k++ {
			check([]string{w}, k)
		}
	}
	fixed := [][]string{
		nil, {}, {"the"}, {"the", "a", "it"}, {"is", "not"},
		{"zzz"}, {"download", "zzz"}, {"download", "download"},
		{"files", "file", "filed"}, {"404", "error"}, {"the", "download", "the"},
	}
	for _, phrase := range fixed {
		for k := -1; k <= 6; k++ {
			check(phrase, k)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		a, b := vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))]
		if i%50 == 0 {
			b = a
		}
		check([]string{a, b}, 1+i%6)
	}
}

func FuzzTopAPIs(f *testing.F) {
	idx, oracle, _ := oracleFixture(f)
	f.Add("download file", 5)
	f.Add("the it", 3)
	f.Add("downloading files files", 6)
	f.Fuzz(func(t *testing.T, phrase string, k int) {
		// Split on single spaces so empty words reach the index as well.
		words := strings.Split(phrase, " ")
		got, want := idx.TopAPIs(words, k), oracle.TopAPIs(words, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TopAPIs(%q, %d) = %v, scan = %v", words, k, got, want)
		}
	})
}

// TestTopAPIsConcurrent shares one index across goroutines, as the pool
// workers of one solver do; run under -race it checks lookups stay
// read-only.
func TestTopAPIsConcurrent(t *testing.T) {
	idx, _, words := oracleFixture(t)
	want := make([][]APIRef, len(words))
	for i, w := range words {
		want[i] = idx.TopAPIs([]string{w, "file"}, 5)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range words {
				j := (i + g*len(words)/4) % len(words)
				if got := idx.TopAPIs([]string{words[j], "file"}, 5); !reflect.DeepEqual(got, want[j]) {
					t.Errorf("goroutine %d: TopAPIs(%q) = %v, want %v", g, words[j], got, want[j])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
