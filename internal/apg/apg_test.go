package apg

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"reviewsolver/internal/apk"
)

func testRelease() *apk.Release {
	b := apk.NewBuilder("com.test.app", "TestApp")
	b.Release("1.0", 1, time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC))
	b.Class("com.test.app.MainActivity").
		Method("onCreate",
			apk.ConstString("msg", "Failed to send some messages"),
			apk.Invoke("", "android.widget.Toast", "makeText", "msg"),
			apk.Invoke("", "com.test.app.Mailer", "sendAll"))
	b.Class("com.test.app.Mailer").
		Method("sendAll",
			apk.Invoke("", "android.telephony.SmsManager", "sendTextMessage"),
			apk.Throw("SendException")).
		Method("openCamera",
			apk.ConstString("act", "android.media.action.IMAGE_CAPTURE"),
			apk.NewObj("intent", "android.content.Intent"),
			apk.Assign("payload", "act"),
			apk.Invoke("", "android.app.Activity", "startActivityForResult", "payload", "intent"))
	b.Class("com.test.app.Contacts").
		Method("queryContacts",
			apk.ConstString("uri", "content://contacts"),
			apk.Invoke("cur", "android.content.ContentResolver", "query", "uri"),
			apk.Catch("SecurityException"),
			apk.Return("cur"))
	return b.Build().Latest()
}

func TestCallSitesOf(t *testing.T) {
	g := Build(testRelease())
	sites := g.CallSitesOf("android.telephony.SmsManager", "sendTextMessage")
	if len(sites) != 1 {
		t.Fatalf("call sites = %d, want 1", len(sites))
	}
	if sites[0].Class() != "com.test.app.Mailer" {
		t.Errorf("caller class = %q", sites[0].Class())
	}
}

func TestClassesCalling(t *testing.T) {
	g := Build(testRelease())
	got := g.ClassesCalling("android.widget.Toast", "makeText")
	if !reflect.DeepEqual(got, []string{"com.test.app.MainActivity"}) {
		t.Errorf("ClassesCalling = %v", got)
	}
}

func TestCallersAppMethod(t *testing.T) {
	g := Build(testRelease())
	got := g.Callers("com.test.app.Mailer.sendAll")
	if !reflect.DeepEqual(got, []string{"com.test.app.MainActivity.onCreate"}) {
		t.Errorf("Callers = %v", got)
	}
}

func TestBackwardStringsDirect(t *testing.T) {
	g := Build(testRelease())
	sites := g.CallSitesOf("android.widget.Toast", "makeText")
	got := g.BackwardStrings(sites[0])
	if !reflect.DeepEqual(got, []string{"Failed to send some messages"}) {
		t.Errorf("BackwardStrings = %v", got)
	}
}

func TestBackwardStringsThroughAssign(t *testing.T) {
	g := Build(testRelease())
	sites := g.CallSitesOf("android.app.Activity", "startActivityForResult")
	if len(sites) != 1 {
		t.Fatalf("sites = %d", len(sites))
	}
	got := g.BackwardStrings(sites[0])
	// The action string flows through the assign; the NewObj is a sink.
	if !reflect.DeepEqual(got, []string{"android.media.action.IMAGE_CAPTURE"}) {
		t.Errorf("BackwardStrings = %v", got)
	}
}

func TestIntentSends(t *testing.T) {
	g := Build(testRelease())
	sends := g.IntentSends()
	if len(sends) != 1 {
		t.Fatalf("intent sends = %d, want 1", len(sends))
	}
	if sends[0].Actions[0] != "android.media.action.IMAGE_CAPTURE" {
		t.Errorf("action = %q", sends[0].Actions[0])
	}
	if sends[0].Site.Class() != "com.test.app.Mailer" {
		t.Errorf("site class = %q", sends[0].Site.Class())
	}
}

func TestContentQueries(t *testing.T) {
	g := Build(testRelease())
	queries := g.ContentQueries()
	if len(queries) != 1 {
		t.Fatalf("content queries = %d, want 1", len(queries))
	}
	if queries[0].URIs[0] != "content://contacts" {
		t.Errorf("uri = %q", queries[0].URIs[0])
	}
}

func TestErrorMessages(t *testing.T) {
	g := Build(testRelease())
	msgs := g.ErrorMessages()
	if len(msgs) != 1 {
		t.Fatalf("error messages = %d, want 1", len(msgs))
	}
	if msgs[0].Texts[0] != "Failed to send some messages" {
		t.Errorf("text = %q", msgs[0].Texts[0])
	}
	if msgs[0].Site.Class() != "com.test.app.MainActivity" {
		t.Errorf("class = %q", msgs[0].Site.Class())
	}
}

func TestExceptionSites(t *testing.T) {
	g := Build(testRelease())
	sites := g.ExceptionSites()
	var thrown, caught []string
	for _, s := range sites {
		if s.Caught {
			caught = append(caught, s.Exception)
		} else {
			thrown = append(thrown, s.Exception)
		}
	}
	if !reflect.DeepEqual(thrown, []string{"SendException"}) {
		t.Errorf("thrown = %v", thrown)
	}
	if !reflect.DeepEqual(caught, []string{"SecurityException"}) {
		t.Errorf("caught = %v", caught)
	}
}

func TestClassDependencyCount(t *testing.T) {
	g := Build(testRelease())
	if got := g.ClassDependencyCount("com.test.app.MainActivity"); got != 1 {
		t.Errorf("MainActivity deps = %d, want 1 (Mailer)", got)
	}
	if got := g.ClassDependencyCount("com.test.app.Contacts"); got != 0 {
		t.Errorf("Contacts deps = %d, want 0", got)
	}
}

// TestMethodsOrderAcrossPrefixClasses pins Methods() to the qualified-name
// string order on class names that prefix one another — "Foo" against
// "Foo$Inner" ('$' sorts before '.') and "a.b" against "a.b.c", whose
// methods interleave — and ClassMethods() to that order restricted to one
// class, with the last of duplicate declarations winning.
func TestMethodsOrderAcrossPrefixClasses(t *testing.T) {
	b := apk.NewBuilder("com.order", "Order")
	b.Release("1.0", 1, time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC))
	b.Class("a.b").Method("z").Method("a").Method("z", apk.Return())
	b.Class("a.b.c").Method("m")
	b.Class("a.b-x").Method("q")
	b.Class("Foo").Method("bar")
	b.Class("Foo$Inner").Method("baz")
	r := b.Build().Latest()
	g := Build(r)

	var got, want []string
	for _, m := range g.Methods() {
		got = append(got, m.QualifiedName())
	}
	for _, c := range r.Classes {
		for _, m := range c.Methods {
			if w, _ := g.MethodRef(m.Class, m.Name); w == m {
				want = append(want, m.QualifiedName())
			}
		}
	}
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Methods() = %q, want %q", got, want)
	}

	ms := g.ClassMethods("a.b")
	if len(ms) != 2 || ms[0].Name != "a" || ms[1].Name != "z" || len(ms[1].Statements) != 1 {
		t.Fatalf("ClassMethods(a.b) = %v, want a and the last z", ms)
	}
	if n := len(g.DeclaredMethods("a.b")); n != 3 {
		t.Fatalf("DeclaredMethods(a.b) has %d declarations, want 3", n)
	}
}

func TestFrameworkCalls(t *testing.T) {
	g := Build(testRelease())
	var calls []Site
	g.FrameworkCallees(func(class, method string, sites []Site) {
		for _, s := range sites {
			if st := s.Statement(); st.InvokeClass != class || st.InvokeMethod != method {
				t.Errorf("site of %s.%s invokes %s.%s", class, method, st.InvokeClass, st.InvokeMethod)
			}
		}
		calls = append(calls, sites...)
	})
	// Toast.makeText, SmsManager.sendTextMessage, Activity.startActivityForResult,
	// ContentResolver.query — the app-internal Mailer.sendAll call is excluded.
	if len(calls) != 4 {
		t.Errorf("framework calls = %d, want 4", len(calls))
	}
	for _, s := range calls {
		if s.Statement().InvokeClass == "com.test.app.Mailer" {
			t.Error("app-internal call listed as framework call")
		}
	}
}

func TestMethodsSorted(t *testing.T) {
	g := Build(testRelease())
	ms := g.Methods()
	for i := 1; i < len(ms); i++ {
		if ms[i-1].QualifiedName() > ms[i].QualifiedName() {
			t.Fatal("Methods() not sorted")
		}
	}
	if _, ok := g.Method("com.test.app.Mailer.sendAll"); !ok {
		t.Error("Method lookup failed")
	}
}
