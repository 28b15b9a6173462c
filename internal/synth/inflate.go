package synth

import (
	"fmt"

	"reviewsolver/internal/apk"
)

// InflateApp pads an app to serve scale: alongside every release's real
// classes ride `copies` decorated clones of the first release's class set.
// The padding mirrors real APKs, which carry hundreds
// of near-identical framework-shaped classes (vendored libraries, generated
// adapters) that a version bump never touches. The clones are built once
// from the first release and shared by every release, so cross-release
// diffs stay exactly the size the real cadence produces, and their
// invocation edges are rewritten into the clone's own namespace (a closed
// world), so they never call into the live classes.
//
// Manifest, layouts, and string resources are shared untouched: padding
// adds method-phrase and inventory rows, not activities. The same input
// always yields the identical output.
func InflateApp(app *apk.App, copies int) *apk.App {
	if copies <= 0 || len(app.Releases) == 0 {
		return app
	}
	base := app.Releases[0]
	appClasses := make(map[string]struct{}, len(base.Classes))
	for _, c := range base.Classes {
		appClasses[c.Name] = struct{}{}
	}
	padding := make([]*apk.Class, 0, copies*len(base.Classes))
	for ci := 1; ci <= copies; ci++ {
		suffix := fmt.Sprintf("Pad%d", ci)
		for _, c := range base.Classes {
			clone := &apk.Class{Name: c.Name + suffix, Super: c.Super}
			clone.Methods = make([]*apk.Method, 0, len(c.Methods))
			for _, m := range c.Methods {
				nm := &apk.Method{
					Name:       m.Name,
					Class:      clone.Name,
					Statements: append([]apk.Statement(nil), m.Statements...),
				}
				for si := range nm.Statements {
					st := &nm.Statements[si]
					if st.Op != apk.OpInvoke {
						continue
					}
					if _, isApp := appClasses[st.InvokeClass]; isApp {
						st.InvokeClass += suffix
					}
				}
				clone.Methods = append(clone.Methods, nm)
			}
			padding = append(padding, clone)
		}
	}
	out := &apk.App{Package: app.Package, Name: app.Name}
	out.Releases = make([]*apk.Release, len(app.Releases))
	for i, r := range app.Releases {
		nr := &apk.Release{ // manifest, layouts, and string resources shared
			Version:     r.Version,
			VersionCode: r.VersionCode,
			ReleasedAt:  r.ReleasedAt,
			Manifest:    r.Manifest,
			Layouts:     r.Layouts,
			StringRes:   r.StringRes,
		}
		nr.Classes = make([]*apk.Class, 0, len(r.Classes)+len(padding))
		nr.Classes = append(nr.Classes, r.Classes...)
		nr.Classes = append(nr.Classes, padding...)
		out.Releases[i] = nr
	}
	return out
}
