// Similarity kernel layer: the dot-only hot path of the §4.1.1/Algorithm 1
// phrase×candidate scans.
//
// Every vector this package hands out is unit-length or zero: computeVector,
// PhraseVector, and hashVector all normalize before returning, and the zero
// vector only appears for empty phrases. For unit-or-zero vectors the cosine
// similarity *is* the plain dot product, so the scan kernel skips the two
// norm accumulations and the sqrt/divide that Cosine pays per candidate.
//
// The kernel operates over a Matrix: candidate vectors flattened row-major
// into one contiguous []float64 block (structure-of-arrays), so a scan walks
// a dense cache-friendly stripe instead of chasing per-candidate structs.
// A threshold scan dots the query against every row in range; the matrices
// are small (hundreds of rows), so there is no prescreen in front of it.
package wordvec

import (
	"fmt"
	"unsafe"
)

// Dot returns the dot product of two vectors with a 4-way unrolled kernel.
// For the unit-or-zero vectors this package produces, Dot(a, b) is the
// cosine similarity of a and b (see Cosine, which recomputes both norms for
// arbitrary input).
func Dot(a, b Vector) float64 {
	var s0, s1, s2, s3 float64
	for i := 0; i < Dim; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	return (s0 + s1) + (s2 + s3)
}

// dotRow is Dot against one flattened matrix row (len Dim).
func dotRow(a *Vector, row []float64) float64 {
	row = row[:Dim] // one bounds check, then the loop is check-free
	var s0, s1, s2, s3 float64
	for i := 0; i < Dim; i += 4 {
		s0 += a[i] * row[i]
		s1 += a[i+1] * row[i+1]
		s2 += a[i+2] * row[i+2]
		s3 += a[i+3] * row[i+3]
	}
	return (s0 + s1) + (s2 + s3)
}

// DotBatch writes the dot product of query against every row of the
// flattened row-major matrix (len(matrix) = len(out)×Dim) into out. For
// unit-or-zero rows the outputs are the cosine similarities.
func DotBatch(query Vector, matrix []float64, out []float64) {
	for r := range out {
		out[r] = dotRow(&query, matrix[r*Dim:(r+1)*Dim])
	}
}

// Matrix is a structure-of-arrays batch of candidate phrase vectors: the
// vectors flattened row-major into one contiguous block. A Matrix is
// immutable once built and safe for concurrent scans.
type Matrix struct {
	rows int
	data []float64 // rows × Dim, row-major
}

// NewMatrix returns an empty matrix with capacity for capRows rows.
func NewMatrix(capRows int) *Matrix {
	return &Matrix{data: make([]float64, 0, capRows*Dim)}
}

// Append adds one candidate vector and returns its row index.
func (m *Matrix) Append(v Vector) int {
	r := m.rows
	m.data = append(m.data, v[:]...)
	m.rows++
	return r
}

// Rows returns the number of candidate rows.
func (m *Matrix) Rows() int { return m.rows }

// Row returns the flattened row (len Dim). The returned slice aliases the
// matrix; callers must not write to it.
func (m *Matrix) Row(i int) []float64 { return m.data[i*Dim : (i+1)*Dim] }

// Data returns the flattened row-major block, for DotBatch-style callers.
func (m *Matrix) Data() []float64 { return m.data }

// MatrixFromParts reassembles a Matrix from its serialized rows×Dim
// flattened data. The slice is adopted, not copied — pass a zero-copy
// snapshot view to get an allocation-free rebuild.
func MatrixFromParts(data []float64) (*Matrix, error) {
	if len(data)%Dim != 0 {
		return nil, fmt.Errorf("wordvec: matrix data of %d floats is not a multiple of Dim=%d", len(data), Dim)
	}
	return &Matrix{rows: len(data) / Dim, data: data}, nil
}

// RowVectors reinterprets a flattened row-major block (len a multiple of
// Dim) as a []Vector view without copying: Vector is [Dim]float64, so rows
// and array elements share one memory layout. The view aliases data;
// callers must treat it as read-only. Snapshot loading uses this to hand
// the per-API []Vector slices out of one contiguous file-backed block.
func RowVectors(data []float64) ([]Vector, error) {
	if len(data)%Dim != 0 {
		return nil, fmt.Errorf("wordvec: vector block of %d floats is not a multiple of Dim=%d", len(data), Dim)
	}
	if len(data) == 0 {
		return nil, nil
	}
	return unsafe.Slice((*Vector)(unsafe.Pointer(&data[0])), len(data)/Dim), nil
}

// ScanCount tallies one scan: Evaluated rows paid a dot product, Matched
// rows crossed the threshold. Every per-row outcome is a pure function of
// (model, query, row), so counts are exactly reproducible and
// chunk-partition invariant — the telemetry layer aggregates them per
// worker chunk and cmd/benchgate gates them to catch kernel regressions
// without wall-clock noise.
type ScanCount struct {
	Evaluated, Matched int
}

// Merge accumulates another chunk's counts.
func (c *ScanCount) Merge(o ScanCount) {
	c.Evaluated += o.Evaluated
	c.Matched += o.Matched
}

// ScanThresholdCount calls yield(row, dot) in row order for every row in
// [start, end) whose dot with the query reaches the threshold, and returns
// the scan's ScanCount. The bookkeeping is two register increments
// alongside the threshold test, so the counted scan is the only scan —
// there is no separate stats pass.
func (m *Matrix) ScanThresholdCount(q *Vector, threshold float64, start, end int, yield func(row int, dot float64)) ScanCount {
	var sc ScanCount
	for r := start; r < end; r++ {
		sc.Evaluated++
		if d := dotRow(q, m.data[r*Dim:(r+1)*Dim]); d >= threshold {
			sc.Matched++
			yield(r, d)
		}
	}
	return sc
}

// AnyAtLeastCount reports whether any row in [start, end) reaches the
// threshold, stopping at the first hit (the per-entry early break of
// Algorithm 1), with the counts of the rows actually touched: Matched is at
// most 1 and rows after the hit are not evaluated.
func (m *Matrix) AnyAtLeastCount(q *Vector, threshold float64, start, end int) (bool, ScanCount) {
	var sc ScanCount
	for r := start; r < end; r++ {
		sc.Evaluated++
		if dotRow(q, m.data[r*Dim:(r+1)*Dim]) >= threshold {
			sc.Matched++
			return true, sc
		}
	}
	return false, sc
}
