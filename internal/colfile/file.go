package colfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// File layout:
//
//	[chunk bytes ...][footer][footer length: 8 bytes LE][magic: 4 bytes]
//
// The footer records the schema, each row group's per-column chunk offsets,
// and zone-map statistics, in a compact binary encoding:
//
//	footer = uvarint(#cols) { str(name) byte(type) }
//	         str(sorted by) varint(rows)
//	         uvarint(#groups) { varint(rows) uvarint(#chunks) { chunk } }
//	chunk  = varint(offset) varint(length) byte(stat flags) varint(nulls)
//	         [varint(min int)] [varint(max int)]
//	         [f64(min float)] [f64(max float)]
//	         [str(min str)] [str(max str)]
//	str    = uvarint(len) bytes
//
// varint is Go's zigzag signed varint, f64 the little-endian IEEE bits, and
// flag bit i marks the i-th bracketed statistic as present. Offsets,
// lengths and row counts are signed so any footer value can be encoded;
// OpenReader's validation, not the encoding, rejects impossible ones. The
// footer carries no NDV sketches: the Writer hands those to the manifest
// action of the file it seals (Writer.Sketches), which is where the planner
// reads them.
var fileMagic = []byte("PCF2")

// ColStats holds the zone map for one column chunk. Min/Max hold values of
// the column type (bool columns have none); NullCount counts NULLs.
type ColStats struct {
	MinInt    *int64   `json:"min_int,omitempty"`
	MaxInt    *int64   `json:"max_int,omitempty"`
	MinFloat  *float64 `json:"min_float,omitempty"`
	MaxFloat  *float64 `json:"max_float,omitempty"`
	MinStr    *string  `json:"min_str,omitempty"`
	MaxStr    *string  `json:"max_str,omitempty"`
	NullCount int      `json:"null_count"`
}

// chunkMeta locates one column chunk within the file.
type chunkMeta struct {
	Offset int64
	Length int64
	Stats  ColStats
}

// rowGroupMeta describes one row group.
type rowGroupMeta struct {
	NumRows int
	Chunks  []chunkMeta
}

type footer struct {
	Schema    Schema
	RowGroups []rowGroupMeta
	NumRows   int64
	// SortedBy names the column the writer declared rows ordered by within
	// each row group (Z-order / clustering stand-in); empty if unsorted.
	SortedBy string
}

// Zone-map statistic flags, one bit per optional ColStats field, in
// encoding order.
const (
	statMinInt byte = 1 << iota
	statMaxInt
	statMinFloat
	statMaxFloat
	statMinStr
	statMaxStr
)

// appendFooter appends the binary encoding of m to b.
func appendFooter(b []byte, m *footer) []byte {
	b = binary.AppendUvarint(b, uint64(len(m.Schema)))
	for _, f := range m.Schema {
		b = appendStr(b, f.Name)
		b = append(b, byte(f.Type))
	}
	b = appendStr(b, m.SortedBy)
	b = binary.AppendVarint(b, m.NumRows)
	b = binary.AppendUvarint(b, uint64(len(m.RowGroups)))
	for _, rg := range m.RowGroups {
		b = binary.AppendVarint(b, int64(rg.NumRows))
		b = binary.AppendUvarint(b, uint64(len(rg.Chunks)))
		for _, ch := range rg.Chunks {
			b = binary.AppendVarint(b, ch.Offset)
			b = binary.AppendVarint(b, ch.Length)
			st := &ch.Stats
			b = append(b, statFlag(st.MinInt != nil, statMinInt)|statFlag(st.MaxInt != nil, statMaxInt)|
				statFlag(st.MinFloat != nil, statMinFloat)|statFlag(st.MaxFloat != nil, statMaxFloat)|
				statFlag(st.MinStr != nil, statMinStr)|statFlag(st.MaxStr != nil, statMaxStr))
			b = binary.AppendVarint(b, int64(st.NullCount))
			if st.MinInt != nil {
				b = binary.AppendVarint(b, *st.MinInt)
			}
			if st.MaxInt != nil {
				b = binary.AppendVarint(b, *st.MaxInt)
			}
			if st.MinFloat != nil {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(*st.MinFloat))
			}
			if st.MaxFloat != nil {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(*st.MaxFloat))
			}
			if st.MinStr != nil {
				b = appendStr(b, *st.MinStr)
			}
			if st.MaxStr != nil {
				b = appendStr(b, *st.MaxStr)
			}
		}
	}
	return b
}

func statFlag(present bool, flag byte) byte {
	if present {
		return flag
	}
	return 0
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// footerDecoder reads a binary footer. The first malformed field sets err;
// every later read then returns a zero value, so decodeFooter checks err
// once at the end.
type footerDecoder struct {
	buf []byte
	// whole is buf converted once: names and string zone maps are
	// substrings of it rather than one allocation each.
	whole string
	pos   int
	err   error
}

func (d *footerDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("colfile: malformed footer: %s at byte %d", what, d.pos)
	}
}

func (d *footerDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.pos += n
	return v
}

func (d *footerDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.pos += n
	return v
}

func (d *footerDecoder) u8() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.buf) {
		d.fail("truncated")
		return 0
	}
	d.pos++
	return d.buf[d.pos-1]
}

func (d *footerDecoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf)-d.pos < 8 {
		d.fail("truncated float")
		return 0
	}
	d.pos += 8
	return math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.pos-8:]))
}

func (d *footerDecoder) str() string {
	n := d.uvarint()
	if n > uint64(len(d.buf)-d.pos) {
		d.fail("string longer than footer")
		return ""
	}
	s := d.whole[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return s
}

// count reads an element count and checks that the bytes left can hold that
// many elements of at least minSize bytes each, so a corrupt count never
// sizes an allocation.
func (d *footerDecoder) count(minSize int) int {
	n := d.uvarint()
	if n > uint64((len(d.buf)-d.pos)/minSize) {
		d.fail(fmt.Sprintf("count %d exceeds remaining bytes", n))
		return 0
	}
	return int(n)
}

// makeN returns a slice of n elements, nil for none.
func makeN[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, n)
}

// decodeFooter parses a footer written by appendFooter. It checks only the
// encoding (every field present, no trailing bytes); footer.validate checks
// the decoded structure against the file.
func decodeFooter(buf []byte) (footer, error) {
	d := footerDecoder{buf: buf, whole: string(buf)}
	var m footer
	// Minimum encoded sizes: a column is a name length and a type byte; a
	// row group a row count and a chunk count; a chunk an offset, a length,
	// a flags byte and a null count.
	m.Schema = makeN[Field](d.count(2))
	for i := range m.Schema {
		m.Schema[i].Name = d.str()
		m.Schema[i].Type = DataType(d.u8())
	}
	m.SortedBy = d.str()
	m.NumRows = d.varint()
	m.RowGroups = makeN[rowGroupMeta](d.count(2))
	for g := range m.RowGroups {
		rg := &m.RowGroups[g]
		rg.NumRows = int(d.varint())
		rg.Chunks = makeN[chunkMeta](d.count(4))
		for c := range rg.Chunks {
			ch := &rg.Chunks[c]
			ch.Offset = d.varint()
			ch.Length = d.varint()
			flags := d.u8()
			if flags >= statMaxStr<<1 {
				d.fail("unknown zone-map flags")
			}
			st := &ch.Stats
			st.NullCount = int(d.varint())
			if flags&statMinInt != 0 {
				st.MinInt = ptr(d.varint())
			}
			if flags&statMaxInt != 0 {
				st.MaxInt = ptr(d.varint())
			}
			if flags&statMinFloat != 0 {
				st.MinFloat = ptr(d.f64())
			}
			if flags&statMaxFloat != 0 {
				st.MaxFloat = ptr(d.f64())
			}
			if flags&statMinStr != 0 {
				st.MinStr = ptr(d.str())
			}
			if flags&statMaxStr != 0 {
				st.MaxStr = ptr(d.str())
			}
		}
	}
	if d.err == nil && d.pos != len(buf) {
		d.fail("trailing bytes")
	}
	return m, d.err
}

// Writer builds a columnar file in memory.
type Writer struct {
	schema   Schema
	sortedBy string
	buf      bytes.Buffer
	meta     footer
	// sketches accumulates one file-level ColSketch per column unless
	// noSketches is set (spill and exchange files, which no planner reads).
	sketches   []ColSketch
	noSketches bool
	finished   bool
}

// NewWriter creates a writer for the schema.
func NewWriter(schema Schema) *Writer {
	return &Writer{schema: schema, meta: footer{Schema: schema}}
}

// SetSortedBy declares the clustering column recorded in the footer.
func (w *Writer) SetSortedBy(col string) { w.sortedBy = col }

// WriteBatch appends one row group containing the batch's logical rows.
// Selection vectors never reach the file format: a selected batch is
// materialized densely first (docs/VECTORIZATION.md, boundary rule).
func (w *Writer) WriteBatch(b *Batch) error {
	if w.finished {
		return errors.New("colfile: writer already finished")
	}
	b = b.Materialize()
	if !b.Schema.Equal(w.schema) {
		return fmt.Errorf("colfile: batch schema %v does not match file schema %v", b.Schema, w.schema)
	}
	n := b.NumRows()
	if n == 0 {
		return nil
	}
	if w.sketches == nil && !w.noSketches {
		w.sketches = make([]ColSketch, len(w.schema))
	}
	rg := rowGroupMeta{NumRows: n, Chunks: make([]chunkMeta, len(b.Cols))}
	for i, col := range b.Cols {
		if col.Len() != n {
			return fmt.Errorf("colfile: column %d has %d rows, batch has %d", i, col.Len(), n)
		}
		if w.sketches != nil {
			w.sketches[i].Observe(col)
		}
		off := int64(w.buf.Len())
		if err := encodeChunk(&w.buf, col); err != nil {
			return err
		}
		rg.Chunks[i] = chunkMeta{
			Offset: off,
			Length: int64(w.buf.Len()) - off,
			Stats:  computeStats(col),
		}
	}
	w.meta.RowGroups = append(w.meta.RowGroups, rg)
	w.meta.NumRows += int64(n)
	return nil
}

// Finish seals the file and returns its bytes. The writer cannot be reused.
func (w *Writer) Finish() ([]byte, error) {
	if w.finished {
		return nil, errors.New("colfile: writer already finished")
	}
	w.finished = true
	w.meta.SortedBy = w.sortedBy
	data := w.buf.Bytes()
	chunkEnd := len(data)
	data = appendFooter(data, &w.meta)
	data = binary.LittleEndian.AppendUint64(data, uint64(len(data)-chunkEnd))
	return append(data, fileMagic...), nil
}

// NumRows returns the rows written so far.
func (w *Writer) NumRows() int64 { return w.meta.NumRows }

// Sketches returns the per-column statistics sketches accumulated so far
// (schema-aligned; nil before the first batch). Write paths attach these to
// the manifest action after sealing so table stats stay fresh under DML;
// the sealed file itself does not carry them.
func (w *Writer) Sketches() []ColSketch { return w.sketches }

func computeStats(v *Vec) ColStats {
	var st ColStats
	first := true
	nonFinite := false
	for i := 0; i < v.Len(); i++ {
		if v.IsNull(i) {
			st.NullCount++
			continue
		}
		switch v.Type {
		case Int64:
			x := v.Ints[i]
			if first || x < *st.MinInt {
				st.MinInt = ptr(x)
			}
			if first || x > *st.MaxInt {
				st.MaxInt = ptr(x)
			}
		case Float64:
			x := v.Floats[i]
			if math.IsNaN(x) || math.IsInf(x, 0) {
				// Non-finite values would poison the zone map (NaN compares
				// false against everything); drop the map for this chunk (no
				// pruning).
				nonFinite = true
				continue
			}
			if first || st.MinFloat == nil || x < *st.MinFloat {
				st.MinFloat = ptr(x)
			}
			if first || st.MaxFloat == nil || x > *st.MaxFloat {
				st.MaxFloat = ptr(x)
			}
		case String:
			x := v.Strs[i]
			if first || x < *st.MinStr {
				st.MinStr = ptr(x)
			}
			if first || x > *st.MaxStr {
				st.MaxStr = ptr(x)
			}
		case Bool:
			// no zone map for bools
		}
		first = false
	}
	if nonFinite {
		st.MinFloat, st.MaxFloat = nil, nil
	}
	return st
}

func ptr[T any](x T) *T { v := x; return &v }

// Reader provides random access to a sealed file's row groups.
type Reader struct {
	data []byte
	meta footer
}

// OpenReader parses and validates the footer of a sealed file. A footer
// that points outside the chunk region, disagrees with its schema, or
// claims more rows than it records fails here, so reads never index past
// what the file holds.
func OpenReader(data []byte) (*Reader, error) {
	if len(data) < 12 || !bytes.Equal(data[len(data)-4:], fileMagic) {
		return nil, errors.New("colfile: bad magic")
	}
	flen := binary.LittleEndian.Uint64(data[len(data)-12 : len(data)-4])
	if flen > uint64(len(data))-12 {
		return nil, errors.New("colfile: footer length out of range")
	}
	fstart := uint64(len(data)) - 12 - flen
	meta, err := decodeFooter(data[fstart : fstart+flen])
	if err != nil {
		return nil, err
	}
	if err := meta.validate(int64(fstart)); err != nil {
		return nil, err
	}
	return &Reader{data: data, meta: meta}, nil
}

// validate checks the footer's structure against the chunkEnd bytes that
// precede it.
func (m *footer) validate(chunkEnd int64) error {
	for _, f := range m.Schema {
		if f.Type > Bool {
			return fmt.Errorf("colfile: column %q has unknown type %d", f.Name, f.Type)
		}
	}
	var rows int64
	for g, rg := range m.RowGroups {
		if rg.NumRows < 0 {
			return fmt.Errorf("colfile: row group %d has %d rows", g, rg.NumRows)
		}
		if len(rg.Chunks) != len(m.Schema) {
			return fmt.Errorf("colfile: row group %d has %d chunks for %d columns", g, len(rg.Chunks), len(m.Schema))
		}
		for c, ch := range rg.Chunks {
			if ch.Offset < 0 || ch.Length < 0 || ch.Length > chunkEnd-ch.Offset {
				return fmt.Errorf("colfile: row group %d column %d chunk [%d,+%d) outside %d chunk bytes", g, c, ch.Offset, ch.Length, chunkEnd)
			}
		}
		rows += int64(rg.NumRows)
	}
	if rows != m.NumRows {
		return fmt.Errorf("colfile: row groups hold %d rows, footer claims %d", rows, m.NumRows)
	}
	return nil
}

// Schema returns the file schema.
func (r *Reader) Schema() Schema { return r.meta.Schema }

// NumRows returns the total number of rows in the file.
func (r *Reader) NumRows() int64 { return r.meta.NumRows }

// NumRowGroups returns the number of row groups.
func (r *Reader) NumRowGroups() int { return len(r.meta.RowGroups) }

// RowGroupRows returns the row count of group g.
func (r *Reader) RowGroupRows(g int) int { return r.meta.RowGroups[g].NumRows }

// SortedBy returns the clustering column declared by the writer.
func (r *Reader) SortedBy() string { return r.meta.SortedBy }

// Stats returns the zone map for column c of row group g.
func (r *Reader) Stats(g, c int) ColStats { return r.meta.RowGroups[g].Chunks[c].Stats }

// ReadColumn decodes column c of row group g.
func (r *Reader) ReadColumn(g, c int) (*Vec, error) {
	if g < 0 || g >= len(r.meta.RowGroups) {
		return nil, fmt.Errorf("colfile: row group %d out of range", g)
	}
	rg := r.meta.RowGroups[g]
	if c < 0 || c >= len(rg.Chunks) {
		return nil, fmt.Errorf("colfile: column %d out of range", c)
	}
	ch := rg.Chunks[c]
	return decodeChunk(r.data[ch.Offset:ch.Offset+ch.Length], r.meta.Schema[c].Type, rg.NumRows)
}

// ReadRowGroup decodes the given columns (all columns when cols is nil) of
// row group g into a batch whose schema is the projection.
func (r *Reader) ReadRowGroup(g int, cols []int) (*Batch, error) {
	if cols == nil {
		cols = make([]int, len(r.meta.Schema))
		for i := range cols {
			cols[i] = i
		}
	}
	schema := make(Schema, len(cols))
	vecs := make([]*Vec, len(cols))
	for i, c := range cols {
		if c < 0 || c >= len(r.meta.Schema) {
			return nil, fmt.Errorf("colfile: column %d out of range", c)
		}
		schema[i] = r.meta.Schema[c]
		v, err := r.ReadColumn(g, c)
		if err != nil {
			return nil, err
		}
		vecs[i] = v
	}
	return &Batch{Schema: schema, Cols: vecs}, nil
}

// ReadAll decodes the whole file into one batch (all row groups, all columns).
func (r *Reader) ReadAll() (*Batch, error) {
	out := NewBatch(r.meta.Schema)
	for g := 0; g < r.NumRowGroups(); g++ {
		b, err := r.ReadRowGroup(g, nil)
		if err != nil {
			return nil, err
		}
		out.AppendBatch(b)
	}
	return out, nil
}

// PruneInt reports whether row group g can be skipped for a predicate
// col ∈ [lo, hi] using the zone map; true means provably no matching rows.
func (r *Reader) PruneInt(g, c int, lo, hi int64) bool {
	st := r.Stats(g, c)
	if st.MinInt == nil || st.MaxInt == nil {
		return false
	}
	return *st.MinInt > hi || *st.MaxInt < lo
}

// PruneStr is the string analogue of PruneInt.
func (r *Reader) PruneStr(g, c int, lo, hi string) bool {
	st := r.Stats(g, c)
	if st.MinStr == nil || st.MaxStr == nil {
		return false
	}
	return *st.MinStr > hi || *st.MaxStr < lo
}

// FileStats summarizes a file for compaction decisions (paper Section 5.1).
type FileStats struct {
	NumRows   int64
	NumGroups int
	SizeBytes int64
}

// QuickStats reads only the footer-derived statistics.
func QuickStats(data []byte) (FileStats, error) {
	r, err := OpenReader(data)
	if err != nil {
		return FileStats{}, err
	}
	return FileStats{NumRows: r.NumRows(), NumGroups: r.NumRowGroups(), SizeBytes: int64(len(data))}, nil
}
