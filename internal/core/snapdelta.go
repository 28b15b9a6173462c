// Delta snapshot images: the .snap persistence of an incremental rebuild.
//
// A release bump changes a handful of classes, so consecutive full .snap
// images repeat almost every embedding row byte for byte. A delta image
// stores a new app version as a patch against an existing base image:
//
//	DELTA_META  the binding — base image checksum, package, and the base
//	            release index each new release patches (or -1 for new ones)
//	REL_DELTA   per patched release: its two row maps, each entry naming the
//	            bitwise-identical base matrix row to reuse (or -1 for fresh)
//	REL_MDATA/  the float blocks then carry ONLY the fresh rows
//	REL_IDATA
//
// META, the app IR, and the inventory sections (REL_META / REL_VECS) are
// written in full — they are small next to the float blocks — while the
// interner and catalog sections are omitted entirely: the loader borrows the
// base snapshot's catalog table and validates the vocabulary/catalog CRCs
// recorded in META. Releases absent from the base encode exactly like a full
// image, so a delta degrades gracefully to self-contained per release.
//
// Row identity is by VALUE, not build provenance: EncodeSnapshotDelta hashes
// every base row and reuses any bitwise-equal new row, which makes the
// encoder independent of HOW the new snapshot was built (full extraction or
// ApplyDelta produce the same bytes, keeping the format deterministic for
// CI's cmp gate).
//
// Loading copies reused rows out of the base into fresh heap arrays: the
// delta-loaded snapshot holds no references into the base IMAGE's float
// blocks, so the two images have independent lifetimes. Only the catalog
// table is shared by pointer with the base snapshot; MaterializedBytes
// reports the copied footprint for registry accounting.
package core

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/snapfile"
	"reviewsolver/internal/wordvec"
)

// ErrSnapshotDelta reports a delta image handed to the plain loader. Delta
// images are not self-contained — load them with LoadSnapshotDelta against
// the base image they were compiled from (DeltaInfo names it).
var ErrSnapshotDelta = errors.New("core: image is a delta snapshot; load it against its base with LoadSnapshotDelta")

// ErrDeltaBaseMismatch reports a delta image loaded against the wrong base:
// different image checksum, package, or release count than the delta was
// compiled against.
var ErrDeltaBaseMismatch = errors.New("core: delta snapshot does not match the provided base")

// errNotDelta reports a full image handed to the delta loader.
var errNotDelta = errors.New("core: image is not a delta snapshot; use LoadSnapshot")

// SnapDeltaInfo describes a delta image's binding to its base, read without
// loading either image. Registries use it to locate the resident base before
// committing to a load.
type SnapDeltaInfo struct {
	// Package is the app package both images describe.
	Package string
	// BaseCRC is the checksum (snapfile.Checksum) of the exact base image
	// the delta was compiled against.
	BaseCRC uint32
	// BaseReleases / Releases are the release counts of base and delta.
	BaseReleases int
	Releases     int
	// PatchedReleases counts the releases encoded as patches; the remaining
	// Releases - PatchedReleases are self-contained.
	PatchedReleases int
}

// DeltaInfo probes an image for the delta binding. The second return is
// false when the image is not a delta snapshot (or not a snapfile at all).
func DeltaInfo(data []byte) (*SnapDeltaInfo, bool) {
	r, err := snapfile.Open(data)
	if err != nil {
		return nil, false
	}
	return deltaInfo(r)
}

func deltaInfo(r *snapfile.Reader) (*SnapDeltaInfo, bool) {
	payload, ok := r.Section(secDeltaMeta)
	if !ok {
		return nil, false
	}
	d := snapfile.NewDec(payload)
	di := &SnapDeltaInfo{}
	di.BaseCRC = d.U32()
	di.Package = d.Str()
	di.BaseReleases = int(d.U32())
	n := d.Count(4)
	di.Releases = n
	for i := 0; i < n && d.Err() == nil; i++ {
		if d.I32() >= 0 {
			di.PatchedReleases++
		}
	}
	if d.Done() != nil {
		return nil, false
	}
	return di, true
}

// EncodeSnapshotDelta serializes a snapshot as a delta against baseImg (a
// full .snap image of an earlier version of the same app). Releases not yet
// extracted are precomputed first. The base is validated exactly like a
// load, so an incompatible or corrupt base fails here, not at load time.
func EncodeSnapshotDelta(sn *Snapshot, app *apk.App, baseImg []byte) ([]byte, error) {
	base, baseApp, err := LoadSnapshotBytes(baseImg)
	if err != nil {
		return nil, fmt.Errorf("delta base: %w", err)
	}
	if baseApp.Package != app.Package {
		return nil, fmt.Errorf("%w: base is app %q, encoding app %q", ErrDeltaBaseMismatch, baseApp.Package, app.Package)
	}
	sn.PrecomputeApp(app)
	s := sn.solver

	w := snapfile.NewWriter()

	meta := snapfile.NewEnc(128)
	meta.Str(app.Package)
	meta.U32(uint32(len(app.Releases)))
	meta.U32(uint32(wordvec.Dim))
	meta.U32(0) // reserved: the retired prescreen basis size, ignored on load
	meta.F64(wordvec.DefaultThreshold)
	meta.U32(uint32(len(s.catalog.APIs())))
	meta.U32(cachedCatalogFingerprint(s.catalog))
	meta.U32(internerCRC())
	w.Add(secMeta, meta.Bytes())

	ir := snapfile.NewEnc(1 << 17)
	app.AppendBinary(ir)
	w.Add(secAppIR, ir.Bytes())

	// Base releases are matched by version string; a version absent from the
	// base (the common case: exactly the new release) encodes in full.
	// Duplicate base versions resolve to the first occurrence — releases are
	// validated version-ordered, so duplicates do not occur in valid apps,
	// and first-wins keeps the encoding deterministic regardless.
	baseIdxOf := make(map[string]int, len(baseApp.Releases))
	for i, r := range baseApp.Releases {
		if _, ok := baseIdxOf[r.Version]; !ok {
			baseIdxOf[r.Version] = i
		}
	}
	dm := snapfile.NewEnc(64 + 4*len(app.Releases))
	dm.U32(snapfile.Checksum(baseImg))
	dm.Str(app.Package)
	dm.U32(uint32(len(baseApp.Releases)))
	dm.U32(uint32(len(app.Releases)))
	baseIdx := make([]int, len(app.Releases))
	for ri, r := range app.Releases {
		bi, ok := baseIdxOf[r.Version]
		if !ok {
			bi = -1
		}
		baseIdx[ri] = bi
		dm.I32(int32(bi))
	}
	w.Add(secDeltaMeta, dm.Bytes())

	for ri, r := range app.Releases {
		info := sn.StaticFor(r)
		var err error
		if bi := baseIdx[ri]; bi >= 0 {
			err = encodeReleaseDelta(w, ri, bi, info, base.StaticFor(baseApp.Releases[bi]))
		} else {
			err = encodeRelease(w, ri, info)
		}
		if err != nil {
			return nil, fmt.Errorf("release %s: %w", r.Version, err)
		}
	}
	return w.Bytes(), nil
}

// SaveSnapshotDelta encodes sn as a delta against the image at basePath and
// writes it to path.
func SaveSnapshotDelta(sn *Snapshot, app *apk.App, basePath, path string) error {
	baseImg, err := os.ReadFile(basePath)
	if err != nil {
		return err
	}
	data, err := EncodeSnapshotDelta(sn, app, baseImg)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// encodeReleaseDelta writes one release as a patch against base release bi:
// full inventory sections, row maps in REL_DELTA, and float blocks holding
// only the rows the base cannot supply.
func encodeReleaseDelta(w *snapfile.Writer, ri, bi int, info, baseInfo *StaticInfo) error {
	if err := encodeReleaseMeta(w, ri, info); err != nil {
		return err
	}
	mMap := valueRowMap(info.methodMatrix, baseInfo.methodMatrix)
	iMap := valueRowMap(info.invisibleMatrix, baseInfo.invisibleMatrix)

	d := snapfile.NewEnc(12 + 4*(len(mMap)+len(iMap)))
	d.U32(uint32(bi))
	d.U32(uint32(len(mMap)))
	for _, m := range mMap {
		d.I32(m)
	}
	d.U32(uint32(len(iMap)))
	for _, m := range iMap {
		d.I32(m)
	}
	w.Add(relSection(ri, relDelta), d.Bytes())

	writeFreshRows(w, ri, relMData, info.methodMatrix, mMap)
	writeFreshRows(w, ri, relIData, info.invisibleMatrix, iMap)
	return nil
}

// valueRowMap maps each row of m to a bitwise-identical row of base, or -1.
// Identity is by row value, not build provenance. Duplicate base rows
// resolve to the first occurrence, keeping the map deterministic.
func valueRowMap(m, base *wordvec.Matrix) []int32 {
	idx := make(map[wordvec.Vector]int32, base.Rows())
	for r := 0; r < base.Rows(); r++ {
		var v wordvec.Vector
		copy(v[:], base.Row(r))
		if _, ok := idx[v]; !ok {
			idx[v] = int32(r)
		}
	}
	out := make([]int32, m.Rows())
	for r := range out {
		var v wordvec.Vector
		copy(v[:], m.Row(r))
		if bi, ok := idx[v]; ok {
			out[r] = bi
		} else {
			out[r] = -1
		}
	}
	return out
}

// writeFreshRows emits a matrix's float section restricted to the rows the
// row map could not source from the base, in row order.
func writeFreshRows(w *snapfile.Writer, ri, dataID int, m *wordvec.Matrix, rowMap []int32) {
	fresh := 0
	for _, bi := range rowMap {
		if bi < 0 {
			fresh++
		}
	}
	data := make([]float64, 0, fresh*wordvec.Dim)
	for r, bi := range rowMap {
		if bi < 0 {
			data = append(data, m.Row(r)...)
		}
	}
	w.Add(relSection(ri, dataID), snapfile.Float64Bytes(data))
}

// LoadSnapshotDelta reads a delta image and its base image from disk and
// reconstructs the new version's snapshot.
func LoadSnapshotDelta(path, basePath string, opts ...Option) (*Snapshot, *apk.App, error) {
	deltaImg, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	baseImg, err := os.ReadFile(basePath)
	if err != nil {
		return nil, nil, err
	}
	return LoadSnapshotDeltaImages(deltaImg, baseImg, opts...)
}

// LoadSnapshotDeltaImages loads a delta image against an in-memory base
// image, loading the base first. When the base snapshot is already resident
// (a serving registry hot-swapping a version bump), use
// LoadSnapshotDeltaBytes directly and skip the base load.
func LoadSnapshotDeltaImages(deltaImg, baseImg []byte, opts ...Option) (*Snapshot, *apk.App, error) {
	base, baseApp, err := LoadSnapshotBytes(baseImg, opts...)
	if err != nil {
		return nil, nil, fmt.Errorf("delta base: %w", err)
	}
	return LoadSnapshotDeltaBytes(deltaImg, base, baseApp, snapfile.Checksum(baseImg), opts...)
}

// LoadSnapshotDeltaBytes reconstructs a snapshot from a delta image and its
// already-loaded base. baseCRC must be the checksum of the exact image base
// was loaded from — the binding recorded at encode time is verified against
// it, so a delta can never silently patch against the wrong bytes. Reused
// rows are copied out of the base: the returned snapshot does not reference
// the base image's float blocks (the catalog table is shared with the base
// SNAPSHOT by pointer — see Snapshot.MaterializedBytes for the accounting
// consequences). The delta image itself is aliased like LoadSnapshotBytes.
func LoadSnapshotDeltaBytes(data []byte, base *Snapshot, baseApp *apk.App, baseCRC uint32, opts ...Option) (*Snapshot, *apk.App, error) {
	r, err := snapfile.Open(data)
	if err != nil {
		return nil, nil, err
	}
	di, ok := deltaInfo(r)
	if !ok {
		return nil, nil, errNotDelta
	}
	if di.BaseCRC != baseCRC {
		return nil, nil, fmt.Errorf("%w: delta compiled against base %08x, have %08x", ErrDeltaBaseMismatch, di.BaseCRC, baseCRC)
	}
	if di.Package != baseApp.Package {
		return nil, nil, fmt.Errorf("%w: delta is app %q, base is %q", ErrDeltaBaseMismatch, di.Package, baseApp.Package)
	}
	if di.BaseReleases != len(baseApp.Releases) {
		return nil, nil, fmt.Errorf("%w: delta expects %d base releases, base has %d", ErrDeltaBaseMismatch, di.BaseReleases, len(baseApp.Releases))
	}

	s := *loadTemplate()
	for _, opt := range opts {
		opt(&s)
	}

	meta, err := r.MustSection(secMeta)
	if err != nil {
		return nil, nil, err
	}
	md := snapfile.NewDec(meta)
	md.Str() // app package, bound via DELTA_META
	releaseCount := int(md.U32())
	dim := md.U32()
	md.U32() // reserved: the retired prescreen basis size, ignored
	threshold := md.F64()
	catCount := md.U32()
	catCRC := md.U32()
	internCRC := md.U32()
	if err := md.Done(); err != nil {
		return nil, nil, err
	}
	if int(dim) != wordvec.Dim || threshold != wordvec.DefaultThreshold {
		return nil, nil, fmt.Errorf("%w: dim %d / threshold %v, build has %d / %v",
			ErrSnapshotIncompatible, dim, threshold, wordvec.Dim, wordvec.DefaultThreshold)
	}
	if int(catCount) != len(s.catalog.APIs()) || catCRC != cachedCatalogFingerprint(s.catalog) {
		return nil, nil, fmt.Errorf("%w: catalog fingerprint mismatch", ErrSnapshotIncompatible)
	}
	// Delta images carry no interner section; the CRC recorded in META is
	// compared against the process vocabulary directly. (The base passed the
	// same check with its own payload when it was loaded.)
	if internCRC != internerCRC() {
		return nil, nil, fmt.Errorf("%w: vocabulary fingerprint mismatch", ErrSnapshotIncompatible)
	}

	irPayload, err := r.MustSection(secAppIR)
	if err != nil {
		return nil, nil, err
	}
	app, err := apk.DecodeBinary(snapfile.NewDecZeroCopy(irPayload))
	if err != nil {
		return nil, nil, err
	}
	if len(app.Releases) != releaseCount || releaseCount != di.Releases {
		return nil, nil, fmt.Errorf("%w: META declares %d releases, IR has %d, DELTA_META %d",
			snapfile.ErrCorrupt, releaseCount, len(app.Releases), di.Releases)
	}
	if app.Package != baseApp.Package {
		return nil, nil, fmt.Errorf("%w: IR is app %q, base is %q", ErrDeltaBaseMismatch, app.Package, baseApp.Package)
	}

	table := base.catalogVecs

	sn := &Snapshot{
		catalogVecs: table,
		static:      make(map[*apk.Release]*staticEntry, len(app.Releases)),
	}
	infos := make([]*StaticInfo, len(app.Releases))
	heapBytes := make([]int64, len(app.Releases))
	errs := make([]error, len(app.Releases))
	if runtime.GOMAXPROCS(0) > 1 && len(app.Releases) > 1 {
		var wg sync.WaitGroup
		for ri, release := range app.Releases {
			wg.Add(1)
			go func(ri int, release *apk.Release) {
				defer wg.Done()
				infos[ri], heapBytes[ri], errs[ri] = loadDeltaRelease(r, ri, release, table, base, baseApp)
			}(ri, release)
		}
		wg.Wait()
	} else {
		for ri, release := range app.Releases {
			infos[ri], heapBytes[ri], errs[ri] = loadDeltaRelease(r, ri, release, table, base, baseApp)
		}
	}
	for ri, release := range app.Releases {
		if errs[ri] != nil {
			return nil, nil, fmt.Errorf("release %s: %w", release.Version, errs[ri])
		}
		e := &staticEntry{info: infos[ri]}
		e.once.Do(func() {}) // consume the once: the entry is prefilled
		sn.static[release] = e
		sn.materializedBytes += heapBytes[ri]
	}

	s.staticCache = nil
	s.catalogVecCache = nil
	s.snap = sn
	sn.solver = &s
	return sn, app, nil
}

// loadDeltaRelease reconstructs one release of a delta image: patched
// releases materialize their matrices from base rows plus the image's fresh
// rows; self-contained releases (no REL_DELTA section) go through the
// standard zero-copy path.
func loadDeltaRelease(r *snapfile.Reader, ri int, release *apk.Release, table *catalogTable, base *Snapshot, baseApp *apk.App) (*StaticInfo, int64, error) {
	dPayload, ok := r.Section(relSection(ri, relDelta))
	if !ok {
		info, err := loadRelease(r, ri, release, table)
		return info, 0, err
	}
	d := snapfile.NewDecZeroCopy(dPayload)
	bi := int(d.U32())
	mMap := readRowMap(d)
	iMap := readRowMap(d)
	if err := d.Done(); err != nil {
		return nil, 0, err
	}
	if bi < 0 || bi >= len(baseApp.Releases) {
		return nil, 0, fmt.Errorf("%w: delta base release index %d of %d", snapfile.ErrCorrupt, bi, len(baseApp.Releases))
	}
	baseInfo := base.StaticFor(baseApp.Releases[bi])

	info, err := loadReleaseMeta(r, ri, release, table)
	if err != nil {
		return nil, 0, err
	}
	var bytes int64
	if info.methodMatrix, err = materializeMatrix(r, ri, relMData, baseInfo.methodMatrix, mMap, &bytes); err != nil {
		return nil, 0, fmt.Errorf("method matrix: %w", err)
	}
	if info.invisibleMatrix, err = materializeMatrix(r, ri, relIData, baseInfo.invisibleMatrix, iMap, &bytes); err != nil {
		return nil, 0, fmt.Errorf("invisible matrix: %w", err)
	}
	if err := attachReleaseMatrices(info); err != nil {
		return nil, 0, err
	}
	return info, bytes, nil
}

func readRowMap(d *snapfile.Dec) []int32 {
	n := d.Count(4)
	out := make([]int32, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		out[i] = d.I32()
	}
	return out
}

// materializeMatrix rebuilds one full scan matrix from base rows plus the
// image's fresh-row section, onto a fresh heap array (counted in heapBytes).
func materializeMatrix(r *snapfile.Reader, ri, dataID int, baseM *wordvec.Matrix, rowMap []int32, heapBytes *int64) (*wordvec.Matrix, error) {
	fData, err := floatSection(r, relSection(ri, dataID))
	if err != nil {
		return nil, err
	}
	fresh := 0
	for _, bi := range rowMap {
		if bi < 0 {
			fresh++
		} else if int(bi) >= baseM.Rows() {
			return nil, fmt.Errorf("%w: delta row map references base row %d of %d", snapfile.ErrCorrupt, bi, baseM.Rows())
		}
	}
	if len(fData) != fresh*wordvec.Dim {
		return nil, fmt.Errorf("%w: fresh block holds %d floats for %d fresh rows", snapfile.ErrCorrupt, len(fData), fresh)
	}
	const d = wordvec.Dim
	data := make([]float64, len(rowMap)*d)
	fi := 0
	for ri, bi := range rowMap {
		if bi >= 0 {
			copy(data[ri*d:(ri+1)*d], baseM.Row(int(bi)))
		} else {
			copy(data[ri*d:(ri+1)*d], fData[fi*d:(fi+1)*d])
			fi++
		}
	}
	*heapBytes += int64(8 * len(data))
	return wordvec.MatrixFromParts(data)
}
