// Command snapshotc compiles an app IR into a serving-ready .snap snapshot:
// the §3.3 static extraction of every release, the framework-catalog phrase
// embeddings, and the flattened scan matrices, serialized into the snapfile
// container that core.LoadSnapshot reconstructs in well under a millisecond.
//
// The output is byte-deterministic: compiling the same IR twice produces
// identical files (CI compiles the seed app twice and compares with cmp).
//
// Usage:
//
//	snapshotc -app com.fsck.k9 -o k9.snap
//	snapshotc -appfile app.json -o app.snap
//	snapshotc -app com.fsck.k9 -o k9.snap -verify
//	snapshotc -app com.fsck.k9 -base old.snap -o k9.delta.snap
//
// -base switches to the release-cadence path: each release is extracted
// reusing its predecessor's name-keyed embeddings (core.PrecomputeDelta)
// and written as a delta image against the given base snapshot — only the
// embedding rows the base cannot supply are stored, and the result loads
// with core.LoadSnapshotDelta. Delta output is exactly as deterministic as
// the full format.
//
// -verify re-opens the written file, checks that re-encoding the loaded
// snapshot reproduces the file byte for byte, and cross-checks localization
// output of the loaded snapshot against the in-memory build over the app's
// generated review corpus (built-in apps only).
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"time"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/core"
	"reviewsolver/internal/synth"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "snapshotc:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		appPkg  = flag.String("app", "", "package id of a built-in generated app")
		appFile = flag.String("appfile", "", "path to an app IR JSON file")
		seed    = flag.Int64("seed", 1, "generator seed for built-in apps")
		out     = flag.String("o", "", "output .snap path (required)")
		base    = flag.String("base", "", "base .snap image: write a delta against it")
		verify  = flag.Bool("verify", false, "after writing, round-trip the file and cross-check localization output")
		list    = flag.Bool("list", false, "list the built-in generated apps")
		quiet   = flag.Bool("q", false, "suppress the summary line")
	)
	flag.Parse()

	if *list {
		for _, info := range synth.Table6Specs() {
			fmt.Printf("%-40s %s\n", info.Package, info.Name)
		}
		return nil
	}
	if *out == "" {
		return errors.New("missing -o output path")
	}

	app, data, err := loadApp(*appPkg, *appFile, *seed)
	if err != nil {
		return err
	}

	started := time.Now()
	sn := core.NewSnapshot()
	var img, baseImg []byte
	if *base != "" {
		if baseImg, err = os.ReadFile(*base); err != nil {
			return err
		}
		// Extract release by release, each reusing its predecessor's
		// name-keyed embeddings, then store only what the base image cannot
		// supply. Both halves are property-tested byte-identical to the full
		// path, so -base changes cost, not output.
		sn.PrecomputeDelta(app)
		img, err = core.EncodeSnapshotDelta(sn, app, baseImg)
	} else {
		img, err = core.EncodeSnapshot(sn, app)
	}
	if err != nil {
		return fmt.Errorf("encode snapshot: %w", err)
	}
	if err := os.WriteFile(*out, img, 0o644); err != nil {
		return err
	}
	if !*quiet {
		kind := "full"
		if *base != "" {
			kind = "delta"
		}
		fmt.Fprintf(os.Stderr, "snapshotc: %s → %s (%s, %d bytes, %d releases) in %s\n",
			app.Package, *out, kind, len(img), len(app.Releases), time.Since(started).Round(time.Millisecond))
	}
	if !*verify {
		return nil
	}
	return verifyRoundTrip(*out, img, baseImg, sn, app, data)
}

// verifyRoundTrip proves the written file is a faithful snapshot: loading it
// and re-encoding must reproduce the bytes exactly, and localization served
// from the loaded snapshot must match the in-memory build review for review.
func verifyRoundTrip(path string, img, baseImg []byte, sn *core.Snapshot, app *apk.App, data *synth.AppData) error {
	var (
		loaded *core.Snapshot
		lapp   *apk.App
		err    error
	)
	if baseImg != nil {
		loaded, lapp, err = core.LoadSnapshotDeltaImages(img, baseImg)
	} else {
		loaded, lapp, err = core.LoadSnapshot(path)
	}
	if err != nil {
		return fmt.Errorf("verify: load: %w", err)
	}
	var reImg []byte
	if baseImg != nil {
		reImg, err = core.EncodeSnapshotDelta(loaded, lapp, baseImg)
	} else {
		reImg, err = core.EncodeSnapshot(loaded, lapp)
	}
	if err != nil {
		return fmt.Errorf("verify: re-encode: %w", err)
	}
	if !bytes.Equal(reImg, img) {
		return errors.New("verify: save→load→save is not byte-identical")
	}

	reviews := 0
	if data != nil {
		built := core.NewWithSnapshot(sn)
		served := core.NewWithSnapshot(loaded)
		for i, rv := range data.Reviews {
			if i >= 50 {
				break
			}
			want := built.LocalizeReview(app, rv.Text, rv.PublishedAt)
			got := served.LocalizeReview(lapp, rv.Text, rv.PublishedAt)
			if !reflect.DeepEqual(got.Mappings, want.Mappings) || !reflect.DeepEqual(got.Ranked, want.Ranked) {
				return fmt.Errorf("verify: review %d: loaded localization differs from in-memory build", i)
			}
			reviews++
		}
	}
	fmt.Fprintf(os.Stderr, "snapshotc: verify ok (round trip byte-identical, %d reviews cross-checked)\n", reviews)
	return nil
}

// loadApp resolves the app IR; data is non-nil only for built-in apps,
// whose generated review corpus feeds -verify's localization cross-check.
func loadApp(pkg, file string, seed int64) (*apk.App, *synth.AppData, error) {
	switch {
	case file != "":
		app, err := apk.LoadJSON(file)
		return app, nil, err
	case pkg != "":
		for i, info := range synth.Table6Specs() {
			if info.Package == pkg {
				data := synth.GenerateTable6(seed)[i]
				return data.App, data, nil
			}
		}
		return nil, nil, fmt.Errorf("unknown built-in app %q (use -list)", pkg)
	default:
		return nil, nil, errors.New("one of -app or -appfile is required")
	}
}
