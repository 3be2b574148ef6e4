package colfile

// Corrupt-input hardening: a damaged data, spill or exchange file must fail
// with an error, never panic, and a failed decode must not poison the pooled
// flate readers that the next decode reuses.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// corruptFixture builds a small multi-row-group file exercising every
// encoding (RLE ints, dictionary strings, plain floats/bools/ints/strings)
// with and without NULL bitmaps, plus the batch it must decode to.
func corruptFixture(t testing.TB) ([]byte, *Batch) {
	t.Helper()
	schema := Schema{
		{Name: "i", Type: Int64}, {Name: "f", Type: Float64},
		{Name: "s", Type: String}, {Name: "b", Type: Bool},
	}
	w := NewWriter(schema)
	want := NewBatch(schema)
	for g, rows := range []int{24, 5} {
		b := NewBatch(schema)
		for r := 0; r < rows; r++ {
			if g == 0 && r%7 == 3 {
				for _, c := range b.Cols {
					c.AppendNull()
				}
				continue
			}
			b.Cols[0].AppendInt(int64(r / 8 * (g + 1)))
			b.Cols[1].AppendFloat(float64(r) * 1.5)
			b.Cols[2].AppendStr(fmt.Sprintf("v%d", (r+g*31)%(3+g*10)))
			b.Cols[3].AppendBool(r%2 == 0)
		}
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
		want.AppendBatch(b)
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data, want
}

// sameBatch reports whether two batches hold identical rows (NULLs and
// float bits included).
func sameBatch(a, b *Batch) bool {
	if !a.Schema.Equal(b.Schema) || a.NumRows() != b.NumRows() {
		return false
	}
	for r := 0; r < a.NumRows(); r++ {
		for c := range a.Cols {
			if !bytes.Equal(a.Cols[c].AppendKey(nil, r), b.Cols[c].AppendKey(nil, r)) {
				return false
			}
		}
	}
	return true
}

// decodeNoPanic runs UnmarshalBatch and QuickStats on data, turning a panic
// into an error so a sweep can report every crashing input.
func decodeNoPanic(data []byte) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	_, _ = QuickStats(data)
	_, _ = UnmarshalBatch(data)
	return nil
}

// TestSingleByteCorruptionsNeverPanic flips every byte of a sealed file to
// several values. Each corrupt file may decode (a flipped value byte is
// undetectable) or fail, but must not panic; after every corrupt decode the
// pristine file must still decode to the original rows through the same
// pooled codecs.
func TestSingleByteCorruptionsNeverPanic(t *testing.T) {
	data, want := corruptFixture(t)
	buf := make([]byte, len(data))
	tried, panics := 0, 0
	for pos := range data {
		orig := data[pos]
		for _, v := range []byte{orig ^ 0x01, orig ^ 0x80, 0x00, 0xff, '9'} {
			if v == orig {
				continue
			}
			copy(buf, data)
			buf[pos] = v
			tried++
			if err := decodeNoPanic(buf); err != nil {
				panics++
				if panics <= 5 {
					t.Errorf("byte %d: %#x -> %#x: %v", pos, orig, v, err)
				}
			}
			got, err := UnmarshalBatch(data)
			if err != nil || !sameBatch(got, want) {
				t.Fatalf("byte %d: pristine file no longer decodes after corrupt input (err=%v)", pos, err)
			}
		}
	}
	if panics > 0 {
		t.Fatalf("%d of %d single-byte corruptions panicked", panics, tried)
	}
}

// TestCorruptFooterFieldsRejected pins the structural footer checks:
// negative offsets, chunk counts that disagree with the schema, and row or
// length fields larger than the bytes present are errors. Each mutated footer
// is re-sealed through the footer encoder and must decode cleanly, so the
// rejection comes from validation rather than from a malformed encoding.
// Every case but one fails validation when the file is opened; a row count
// that only the chunk bytes contradict fails when the chunk is decoded.
func TestCorruptFooterFieldsRejected(t *testing.T) {
	data, _ := corruptFixture(t)
	r, err := OpenReader(data)
	if err != nil {
		t.Fatal(err)
	}
	chunkEnd := int64(len(data)) - 12 - int64(len(footerBytes(data)))
	cases := map[string]struct {
		mutate func(m *footer)
		atRead bool // passes validation; the chunk decoder rejects it
	}{
		"negative offset":         {mutate: func(m *footer) { m.RowGroups[0].Chunks[1].Offset = -4 }},
		"negative length":         {mutate: func(m *footer) { m.RowGroups[0].Chunks[1].Length = -1 }},
		"chunk past footer":       {mutate: func(m *footer) { m.RowGroups[1].Chunks[0].Length = 1 << 40 }},
		"too few chunks":          {mutate: func(m *footer) { m.RowGroups[0].Chunks = m.RowGroups[0].Chunks[:2] }},
		"too many chunks":         {mutate: func(m *footer) { m.RowGroups[1].Chunks = append(m.RowGroups[1].Chunks, m.RowGroups[1].Chunks[0]) }},
		"no chunks":               {mutate: func(m *footer) { m.RowGroups[0].Chunks = nil }},
		"unknown column type":     {mutate: func(m *footer) { m.Schema[2].Type = 9 }},
		"negative group rows":     {mutate: func(m *footer) { m.RowGroups[1].NumRows = -5 }},
		"row total mismatch":      {mutate: func(m *footer) { m.NumRows++ }},
		"rows beyond chunk bytes": {mutate: func(m *footer) { m.RowGroups[1].NumRows, m.NumRows = 1<<40, m.NumRows+1<<40-5 }, atRead: true},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			m := r.meta
			m.Schema = append(Schema(nil), m.Schema...)
			m.RowGroups = append([]rowGroupMeta(nil), m.RowGroups...)
			for g := range m.RowGroups {
				m.RowGroups[g].Chunks = append([]chunkMeta(nil), m.RowGroups[g].Chunks...)
			}
			tc.mutate(&m)
			fb := appendFooter(nil, &m)
			decoded, err := decodeFooter(fb)
			if err != nil {
				t.Fatalf("mutated footer does not decode: %v", err)
			}
			verr := decoded.validate(chunkEnd)
			if tc.atRead != (verr == nil) {
				t.Fatalf("validate = %v, want an error exactly when the case is not left to the chunk decoder (atRead=%v)", verr, tc.atRead)
			}
			bad := resealRaw(data, fb)
			if err := decodeNoPanic(bad); err != nil {
				t.Fatal(err)
			}
			if _, err := UnmarshalBatch(bad); err == nil {
				t.Fatal("corrupt footer accepted")
			}
		})
	}
}

// malformedFooter is a file whose footer bytes are not a valid encoding:
// the footer decoder, not validation, must reject it.
type malformedFooter struct {
	name string
	data []byte
}

func malformedFooters(data []byte) []malformedFooter {
	fb := footerBytes(data)
	return []malformedFooter{
		// A column count whose continuation bit promises more bytes.
		{"truncated varint", resealRaw(data, []byte{0x80})},
		// No columns, no sort column, no rows, then a row-group count far
		// larger than the bytes that follow.
		{"oversized count", resealRaw(data, binary.AppendUvarint([]byte{0, 0, 0}, 1<<40))},
		{"trailing bytes", resealRaw(data, append(append([]byte(nil), fb...), 0))},
		// One column, no sort column, no rows, one row group of one chunk
		// whose flags byte sets a bit no statistic uses.
		{"unknown stat flags", resealRaw(data, []byte{1, 1, 'k', 0, 0, 0, 1, 0, 1, 0, 0, 0x80, 0})},
		{"truncated", resealRaw(data, fb[:len(fb)-1])},
	}
}

func TestMalformedFootersRejected(t *testing.T) {
	data, _ := corruptFixture(t)
	for _, tc := range malformedFooters(data) {
		if _, err := decodeFooter(footerBytes(tc.data)); err == nil {
			t.Errorf("%s: footer decoder accepted malformed bytes", tc.name)
		}
		if _, err := OpenReader(tc.data); err == nil {
			t.Errorf("%s: OpenReader accepted malformed footer", tc.name)
		}
	}
}

// FuzzColfileCorrupt feeds arbitrary bytes (seeded with a valid file and
// single-byte corruptions of it) to the reader: no input may panic, and a
// pooled reader that just failed on a corrupt chunk must decode the valid
// file correctly afterwards.
func FuzzColfileCorrupt(f *testing.F) {
	data, want := corruptFixture(f)
	f.Add(data)
	for _, pos := range []int{0, 9, len(data) / 3, len(data) / 2, len(data) - 40, len(data) - 12, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[pos] ^= 0x5a
		f.Add(bad)
	}
	f.Add(data[:len(data)/2])
	for _, tc := range malformedFooters(data) {
		f.Add(tc.data)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if err := decodeNoPanic(in); err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalBatch(data)
		if err != nil || !sameBatch(got, want) {
			t.Fatalf("valid file decodes wrong after corrupt input (err=%v)", err)
		}
	})
}
