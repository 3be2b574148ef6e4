package colfile

import "math"

// ColSketch is the per-column statistics sketch a Writer computes while a
// file is sealed: row/NULL counts, file-level min/max, and a fixed-size
// linear-counting bitmap estimating the number of distinct values. Sketches
// ride on the manifest entry of every data file (Writer.Sketches feeds the
// Add action; the file footer does not repeat them), so table-level
// statistics are a pure fold over the live file entries — DML keeps them
// fresh with no separate ANALYZE pass. Spill and exchange files, which never
// reach a manifest, compute none.
//
// The NDV bitmap is mergeable by bitwise OR (the sketch of a union of files
// is the OR of their bitmaps), which is exactly how table-level NDV is
// derived. Estimates are estimates: deletions are not subtracted (a file's
// sketch describes the rows it was sealed with), and the bitmap saturates
// around sketchBits distinct values — both acceptable for the planner, which
// only needs relative cardinalities.
type ColSketch struct {
	// Rows counts every value observed, NULLs included.
	Rows int64 `json:"rows"`
	// Stats carries file-level min/max and the NULL count, in the same
	// JSON-friendly shape as the per-chunk zone maps.
	Stats ColStats `json:"stats"`
	// Bitmap is the linear-counting bitmap (sketchBits bits). Nil means NDV
	// is unknown for this column (e.g. a merge involving a pre-sketch file).
	Bitmap []byte `json:"ndv,omitempty"`
}

// sketchBits sizes the linear-counting bitmap. 2048 bits (256 bytes per
// column per file) keeps the estimate within a few percent up to roughly a
// thousand distinct values and degrades gracefully into saturation above —
// plenty of resolution for join-order and selectivity decisions.
const sketchBits = 2048

// fnv64a hashes an encoded value for the NDV bitmap.
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}

// Observe folds every value of v into the sketch.
func (s *ColSketch) Observe(v *Vec) {
	if s.Bitmap == nil {
		s.Bitmap = make([]byte, sketchBits/8)
	}
	var scratch []byte
	n := v.Len()
	for i := 0; i < n; i++ {
		if v.IsNull(i) {
			s.Stats.NullCount++
			continue
		}
		scratch = v.AppendKey(scratch[:0], i)
		bit := fnv64a(scratch) % sketchBits
		s.Bitmap[bit/8] |= 1 << (bit % 8)
	}
	s.Rows += int64(n)
	s.Stats = mergeColStats(s.Stats, computeStats(v))
}

// Merge folds another sketch into s (the sketch of the concatenation of the
// two files). A nil bitmap on either side with values observed makes the
// merged NDV unknown.
func (s *ColSketch) Merge(o ColSketch) {
	s.Rows += o.Rows
	nulls := s.Stats.NullCount + o.Stats.NullCount
	s.Stats = mergeColStats(s.Stats, o.Stats)
	s.Stats.NullCount = nulls
	switch {
	case o.Rows-int64(o.Stats.NullCount) == 0:
		// Nothing non-NULL on the other side: bitmap unchanged.
	case s.Rows-o.Rows-int64(nulls-o.Stats.NullCount) == 0 && s.Bitmap == nil:
		// This side had nothing non-NULL yet: adopt the other bitmap.
		s.Bitmap = append([]byte(nil), o.Bitmap...)
	case s.Bitmap == nil || o.Bitmap == nil || len(s.Bitmap) != len(o.Bitmap):
		s.Bitmap = nil // NDV unknown
	default:
		for i := range s.Bitmap {
			s.Bitmap[i] |= o.Bitmap[i]
		}
	}
}

// NonNullRows returns the number of non-NULL values observed.
func (s *ColSketch) NonNullRows() int64 { return s.Rows - int64(s.Stats.NullCount) }

// NDV estimates the number of distinct non-NULL values via linear counting:
// with m bits and z still zero, the estimate is m·ln(m/z). A saturated bitmap
// (z = 0) or a missing one estimates the non-NULL row count — the safe upper
// bound. The estimate is always clamped to [min(1, rows), rows].
func (s *ColSketch) NDV() int64 {
	rows := s.NonNullRows()
	if rows <= 0 {
		return 0
	}
	if s.Bitmap == nil {
		return rows
	}
	ones := int64(0)
	for _, b := range s.Bitmap {
		for x := b; x != 0; x &= x - 1 {
			ones++
		}
	}
	zero := int64(len(s.Bitmap))*8 - ones
	if zero == 0 {
		return rows
	}
	m := float64(len(s.Bitmap)) * 8
	est := int64(math.Round(m * math.Log(m/float64(zero))))
	if est > rows {
		est = rows
	}
	if est < 1 {
		est = 1
	}
	return est
}

// mergeColStats folds the min/max of two zone-map summaries. NULL counts are
// the caller's responsibility (Observe counts them row by row; Merge sums
// them) — the result keeps a's count untouched.
func mergeColStats(a, b ColStats) ColStats {
	out := a
	if b.MinInt != nil && (out.MinInt == nil || *b.MinInt < *out.MinInt) {
		out.MinInt = b.MinInt
	}
	if b.MaxInt != nil && (out.MaxInt == nil || *b.MaxInt > *out.MaxInt) {
		out.MaxInt = b.MaxInt
	}
	if b.MinFloat != nil && (out.MinFloat == nil || *b.MinFloat < *out.MinFloat) {
		out.MinFloat = b.MinFloat
	}
	if b.MaxFloat != nil && (out.MaxFloat == nil || *b.MaxFloat > *out.MaxFloat) {
		out.MaxFloat = b.MaxFloat
	}
	if b.MinStr != nil && (out.MinStr == nil || *b.MinStr < *out.MinStr) {
		out.MinStr = b.MinStr
	}
	if b.MaxStr != nil && (out.MaxStr == nil || *b.MaxStr > *out.MaxStr) {
		out.MaxStr = b.MaxStr
	}
	return out
}
