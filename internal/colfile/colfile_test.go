package colfile

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func testSchema() Schema {
	return Schema{
		{Name: "id", Type: Int64},
		{Name: "price", Type: Float64},
		{Name: "name", Type: String},
		{Name: "flag", Type: Bool},
	}
}

func buildBatch(t *testing.T, n int, seed int64) *Batch {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBatch(testSchema())
	for i := 0; i < n; i++ {
		if err := b.AppendRow(int64(i), rng.Float64()*100, fmt.Sprintf("name-%d", rng.Intn(10)), i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	b := buildBatch(t, 100, 1)
	w := NewWriter(testSchema())
	if err := w.WriteBatch(b); err != nil {
		t.Fatal(err)
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 100 || r.NumRowGroups() != 1 {
		t.Fatalf("rows=%d groups=%d", r.NumRows(), r.NumRowGroups())
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 100 {
		t.Fatalf("read %d rows", got.NumRows())
	}
	for i := 0; i < 100; i++ {
		if !reflect.DeepEqual(got.Row(i), b.Row(i)) {
			t.Fatalf("row %d: got %v, want %v", i, got.Row(i), b.Row(i))
		}
	}
}

func TestMultipleRowGroups(t *testing.T) {
	w := NewWriter(testSchema())
	for g := 0; g < 5; g++ {
		if err := w.WriteBatch(buildBatch(t, 20, int64(g))); err != nil {
			t.Fatal(err)
		}
	}
	data, _ := w.Finish()
	r, err := OpenReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRowGroups() != 5 || r.NumRows() != 100 {
		t.Fatalf("groups=%d rows=%d", r.NumRowGroups(), r.NumRows())
	}
	for g := 0; g < 5; g++ {
		if r.RowGroupRows(g) != 20 {
			t.Fatalf("group %d rows = %d", g, r.RowGroupRows(g))
		}
	}
}

func TestColumnProjection(t *testing.T) {
	b := buildBatch(t, 50, 2)
	w := NewWriter(testSchema())
	_ = w.WriteBatch(b)
	data, _ := w.Finish()
	r, _ := OpenReader(data)
	got, err := r.ReadRowGroup(0, []int{2, 0}) // name, id
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cols) != 2 || got.Schema[0].Name != "name" || got.Schema[1].Name != "id" {
		t.Fatalf("projection schema = %v", got.Schema)
	}
	if got.Cols[1].Ints[7] != 7 {
		t.Fatalf("id[7] = %d", got.Cols[1].Ints[7])
	}
}

func TestNullsRoundTrip(t *testing.T) {
	schema := Schema{{Name: "a", Type: Int64}, {Name: "s", Type: String}}
	b := NewBatch(schema)
	for i := 0; i < 30; i++ {
		if i%3 == 0 {
			_ = b.AppendRow(nil, nil)
		} else {
			_ = b.AppendRow(int64(i), fmt.Sprintf("v%d", i))
		}
	}
	w := NewWriter(schema)
	_ = w.WriteBatch(b)
	data, _ := w.Finish()
	r, _ := OpenReader(data)
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		wantNull := i%3 == 0
		if got.Cols[0].IsNull(i) != wantNull || got.Cols[1].IsNull(i) != wantNull {
			t.Fatalf("row %d null = %v/%v, want %v", i, got.Cols[0].IsNull(i), got.Cols[1].IsNull(i), wantNull)
		}
		if !wantNull && got.Cols[0].Ints[i] != int64(i) {
			t.Fatalf("row %d value = %d", i, got.Cols[0].Ints[i])
		}
	}
	st := r.Stats(0, 0)
	if st.NullCount != 10 {
		t.Fatalf("null count = %d", st.NullCount)
	}
}

func TestZoneMapStats(t *testing.T) {
	schema := Schema{{Name: "k", Type: Int64}, {Name: "s", Type: String}}
	w := NewWriter(schema)
	b := NewBatch(schema)
	for i := 10; i < 20; i++ {
		_ = b.AppendRow(int64(i), fmt.Sprintf("%c", 'a'+i-10))
	}
	_ = w.WriteBatch(b)
	data, _ := w.Finish()
	r, _ := OpenReader(data)
	st := r.Stats(0, 0)
	if *st.MinInt != 10 || *st.MaxInt != 19 {
		t.Fatalf("int stats = [%d,%d]", *st.MinInt, *st.MaxInt)
	}
	ss := r.Stats(0, 1)
	if *ss.MinStr != "a" || *ss.MaxStr != "j" {
		t.Fatalf("str stats = [%s,%s]", *ss.MinStr, *ss.MaxStr)
	}
}

func TestPruning(t *testing.T) {
	schema := Schema{{Name: "k", Type: Int64}}
	w := NewWriter(schema)
	for g := 0; g < 3; g++ {
		b := NewBatch(schema)
		for i := 0; i < 10; i++ {
			_ = b.AppendRow(int64(g*100 + i))
		}
		_ = w.WriteBatch(b)
	}
	data, _ := w.Finish()
	r, _ := OpenReader(data)
	// predicate k in [100, 109] should prune groups 0 and 2
	if !r.PruneInt(0, 0, 100, 109) || r.PruneInt(1, 0, 100, 109) || !r.PruneInt(2, 0, 100, 109) {
		t.Fatal("int pruning wrong")
	}
}

func TestDictionaryEncodingChosen(t *testing.T) {
	v := NewVec(String)
	for i := 0; i < 1000; i++ {
		v.AppendStr(fmt.Sprintf("cat-%d", i%5))
	}
	if chooseEncoding(v) != encDict {
		t.Fatal("expected dictionary encoding for low-cardinality strings")
	}
	data, err := encodeToBytes(v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeChunk(data, String, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v.Strs {
		if got.Strs[i] != v.Strs[i] {
			t.Fatalf("dict round trip failed at %d", i)
		}
	}
}

func TestRLEEncodingChosen(t *testing.T) {
	v := NewVec(Int64)
	for i := 0; i < 1000; i++ {
		v.AppendInt(int64(i / 100))
	}
	if chooseEncoding(v) != encRLE {
		t.Fatal("expected RLE for runny ints")
	}
	data, _ := encodeToBytes(v)
	got, err := decodeChunk(data, Int64, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v.Ints {
		if got.Ints[i] != v.Ints[i] {
			t.Fatalf("rle round trip failed at %d", i)
		}
	}
}

func TestHighCardinalityUsesPlain(t *testing.T) {
	v := NewVec(String)
	for i := 0; i < 100; i++ {
		v.AppendStr(fmt.Sprintf("unique-%d", i))
	}
	if chooseEncoding(v) != encPlain {
		t.Fatal("expected plain for high-cardinality strings")
	}
}

func TestCorruptFile(t *testing.T) {
	for i, data := range [][]byte{nil, []byte("tiny"), []byte("this is not a columnar file at all....")} {
		if _, err := OpenReader(data); err == nil {
			t.Fatalf("case %d: corrupt file accepted", i)
		}
	}
	// valid file with clipped chunk region
	w := NewWriter(Schema{{Name: "k", Type: Int64}})
	b := NewBatch(Schema{{Name: "k", Type: Int64}})
	_ = b.AppendRow(int64(1))
	_ = w.WriteBatch(b)
	data, _ := w.Finish()
	// corrupt footer length
	data[len(data)-12] ^= 0xFF
	if _, err := OpenReader(data); err == nil {
		t.Fatal("corrupt footer length accepted")
	}
}

func TestWriterMisuse(t *testing.T) {
	w := NewWriter(testSchema())
	_, err := w.Finish()
	if err != nil {
		t.Fatal(err) // empty file is legal
	}
	if err := w.WriteBatch(buildBatch(t, 1, 0)); err == nil {
		t.Fatal("write after finish accepted")
	}
	if _, err := w.Finish(); err == nil {
		t.Fatal("double finish accepted")
	}
	w2 := NewWriter(testSchema())
	wrong := NewBatch(Schema{{Name: "x", Type: Int64}})
	_ = wrong.AppendRow(int64(1))
	if err := w2.WriteBatch(wrong); err == nil {
		t.Fatal("schema mismatch accepted")
	}
}

func TestEmptyBatchSkipped(t *testing.T) {
	w := NewWriter(testSchema())
	if err := w.WriteBatch(NewBatch(testSchema())); err != nil {
		t.Fatal(err)
	}
	data, _ := w.Finish()
	r, _ := OpenReader(data)
	if r.NumRowGroups() != 0 {
		t.Fatal("empty batch created a row group")
	}
}

func TestSortedByMetadata(t *testing.T) {
	w := NewWriter(testSchema())
	w.SetSortedBy("id")
	_ = w.WriteBatch(buildBatch(t, 10, 3))
	data, _ := w.Finish()
	r, _ := OpenReader(data)
	if r.SortedBy() != "id" {
		t.Fatalf("SortedBy = %q", r.SortedBy())
	}
}

func TestQuickStats(t *testing.T) {
	w := NewWriter(testSchema())
	_ = w.WriteBatch(buildBatch(t, 42, 4))
	data, _ := w.Finish()
	st, err := QuickStats(data)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumRows != 42 || st.NumGroups != 1 || st.SizeBytes != int64(len(data)) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestVecFilterSlice(t *testing.T) {
	v := NewVec(Int64)
	for i := 0; i < 10; i++ {
		v.AppendInt(int64(i))
	}
	keep := make([]bool, 10)
	keep[2], keep[5] = true, true
	f := v.Filter(keep)
	if f.Len() != 2 || f.Ints[0] != 2 || f.Ints[1] != 5 {
		t.Fatalf("filter = %v", f.Ints)
	}
	s := v.Slice(3, 6)
	if s.Len() != 3 || s.Ints[0] != 3 {
		t.Fatalf("slice = %v", s.Ints)
	}
}

func TestBatchAppendRowArityError(t *testing.T) {
	b := NewBatch(testSchema())
	if err := b.AppendRow(int64(1)); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if err := b.AppendRow("str", 1.0, "x", true); err == nil {
		t.Fatal("type mismatch accepted")
	}
}

func TestFloatSpecials(t *testing.T) {
	schema := Schema{{Name: "f", Type: Float64}}
	b := NewBatch(schema)
	vals := []float64{0, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, -0.0}
	for _, f := range vals {
		_ = b.AppendRow(f)
	}
	w := NewWriter(schema)
	_ = w.WriteBatch(b)
	data, _ := w.Finish()
	r, _ := OpenReader(data)
	got, _ := r.ReadAll()
	for i, f := range vals {
		if got.Cols[0].Floats[i] != f {
			t.Fatalf("float %d: got %v want %v", i, got.Cols[0].Floats[i], f)
		}
	}
}

func TestPropertyIntColumnRoundTrip(t *testing.T) {
	f := func(xs []int64) bool {
		v := NewVec(Int64)
		v.Ints = xs
		data, err := encodeToBytes(v)
		if err != nil {
			return false
		}
		got, err := decodeChunk(data, Int64, len(xs))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Ints, make0(xs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// make0 normalizes nil vs empty slices for DeepEqual.
func make0(xs []int64) []int64 {
	if xs == nil {
		return []int64{}
	}
	return xs
}

func TestPropertyStringColumnRoundTrip(t *testing.T) {
	f := func(xs []string) bool {
		v := NewVec(String)
		v.Strs = xs
		data, err := encodeToBytes(v)
		if err != nil {
			return false
		}
		got, err := decodeChunk(data, String, len(xs))
		if err != nil {
			return false
		}
		for i := range xs {
			if got.Strs[i] != xs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyFileRoundTrip(t *testing.T) {
	type row struct {
		A int64
		B float64
		C string
		D bool
	}
	schema := Schema{{Name: "a", Type: Int64}, {Name: "b", Type: Float64}, {Name: "c", Type: String}, {Name: "d", Type: Bool}}
	f := func(rows []row) bool {
		b := NewBatch(schema)
		for _, r := range rows {
			if math.IsNaN(r.B) {
				r.B = 0 // NaN != NaN breaks comparison, not a format property
			}
			if err := b.AppendRow(r.A, r.B, r.C, r.D); err != nil {
				return false
			}
		}
		w := NewWriter(schema)
		if err := w.WriteBatch(b); err != nil {
			return false
		}
		data, err := w.Finish()
		if err != nil {
			return false
		}
		rd, err := OpenReader(data)
		if err != nil {
			return false
		}
		got, err := rd.ReadAll()
		if err != nil {
			return false
		}
		if got.NumRows() != len(rows) {
			return false
		}
		for i := range rows {
			if !reflect.DeepEqual(got.Row(i), b.Row(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestVecTake(t *testing.T) {
	v := NewVec(Int64)
	for i := 0; i < 5; i++ {
		v.AppendInt(int64(i * 10))
	}
	v.AppendNull()
	got := v.Take([]int{4, -1, 0, 5, 2})
	if got.Len() != 5 {
		t.Fatalf("len = %d", got.Len())
	}
	if got.Ints[0] != 40 || got.Ints[2] != 0 || got.Ints[4] != 20 {
		t.Fatalf("take = %v", got.Ints)
	}
	if !got.IsNull(1) || !got.IsNull(3) {
		t.Fatal("-1 and NULL source positions must be NULL")
	}
	if got.IsNull(0) || got.IsNull(2) || got.IsNull(4) {
		t.Fatal("value positions marked NULL")
	}

	// Every type, per-row equivalence with Append.
	b := buildBatch(t, 50, 7)
	b.Cols[2].Strs[9] = "x\x00y"
	idx := []int{49, 0, -1, 9, 9, 25}
	tb := b.Take(idx)
	for k, i := range idx {
		for c := range b.Cols {
			var want any
			if i >= 0 {
				want = b.Cols[c].Value(i)
			}
			if got := tb.Cols[c].Value(k); !reflect.DeepEqual(got, want) {
				t.Fatalf("col %d row %d: got %v want %v", c, k, got, want)
			}
		}
	}
}

func TestVecFilterSliceWithNulls(t *testing.T) {
	v := NewVec(String)
	v.AppendStr("a")
	v.AppendNull()
	v.AppendStr("c")
	v.AppendStr("d")
	f := v.Filter([]bool{true, true, false, true})
	if f.Len() != 3 || f.Strs[0] != "a" || !f.IsNull(1) || f.Strs[2] != "d" {
		t.Fatalf("filter = %v nulls=%v", f.Strs, f.Nulls)
	}
	s := v.Slice(1, 3)
	if s.Len() != 2 || !s.IsNull(0) || s.Strs[1] != "c" {
		t.Fatalf("slice = %v nulls=%v", s.Strs, s.Nulls)
	}
	// Slicing a null-free window of a nullable vector drops the null mask.
	s2 := v.Slice(2, 4)
	if s2.Nulls != nil {
		t.Fatalf("null-free slice kept mask %v", s2.Nulls)
	}
	// Slice must not alias the source.
	s.Strs[1] = "mut"
	if v.Strs[2] != "c" {
		t.Fatal("slice aliases source")
	}
}

func TestAppendKeyDistinguishesTypesAndNulls(t *testing.T) {
	enc := func(v *Vec, i int) string { return string(v.AppendKey(nil, i)) }

	iv := NewVec(Int64)
	iv.AppendInt(0)
	iv.AppendInt(1)
	iv.AppendInt(-1)
	iv.AppendNull()
	keys := map[string]bool{}
	for i := 0; i < 4; i++ {
		keys[enc(iv, i)] = true
	}
	if len(keys) != 4 {
		t.Fatalf("int keys collide: %d distinct of 4", len(keys))
	}
	// Order-preserving: -1 < 0 < 1 bytewise.
	if !(enc(iv, 2) < enc(iv, 0) && enc(iv, 0) < enc(iv, 1)) {
		t.Fatal("int key encoding is not order-preserving")
	}

	fv := NewVec(Float64)
	fv.AppendFloat(-2.5)
	fv.AppendFloat(0)
	fv.AppendFloat(3.25)
	if !(enc(fv, 0) < enc(fv, 1) && enc(fv, 1) < enc(fv, 2)) {
		t.Fatal("float key encoding is not order-preserving")
	}

	// NULL never equals any value, including zero values.
	bv := NewVec(Bool)
	bv.AppendBool(false)
	bv.AppendNull()
	if enc(bv, 0) == enc(bv, 1) {
		t.Fatal("NULL bool collides with false")
	}
}

// TestAppendSortKeyOrderPreserving pins the ORDER BY key encoding: bytewise
// comparison of encoded keys must equal value comparison for every type,
// ascending and descending, with NULLs first ascending / last descending.
// Strings are the case AppendKey cannot serve (its length prefix sorts "ab"
// after "b"); the sort key's escaped terminator encoding must not.
func TestAppendSortKeyOrderPreserving(t *testing.T) {
	enc := func(v *Vec, i int, desc bool) string {
		return string(v.AppendSortKey(nil, i, desc))
	}
	// Ascending-ordered probe values per type, NULL first (the engine's
	// ascending order). Index order == expected encoded order.
	sv := NewVec(String)
	sv.AppendNull()
	sv.AppendStr("")
	sv.AppendStr("a")
	sv.AppendStr("a\x00")
	sv.AppendStr("a\x00b")
	sv.AppendStr("ab")
	sv.AppendStr("b")
	iv := NewVec(Int64)
	iv.AppendNull()
	iv.AppendInt(-1 << 62)
	iv.AppendInt(-1)
	iv.AppendInt(0)
	iv.AppendInt(1)
	iv.AppendInt(1 << 62)
	fv := NewVec(Float64)
	fv.AppendNull()
	fv.AppendFloat(-1e300)
	fv.AppendFloat(-0.5)
	fv.AppendFloat(0)
	fv.AppendFloat(2.25)
	bv := NewVec(Bool)
	bv.AppendNull()
	bv.AppendBool(false)
	bv.AppendBool(true)

	for _, v := range []*Vec{sv, iv, fv, bv} {
		for i := 0; i+1 < v.Len(); i++ {
			if !(enc(v, i, false) < enc(v, i+1, false)) {
				t.Fatalf("%s asc: position %d not below %d (%v vs %v)", v.Type, i, i+1, v.Value(i), v.Value(i+1))
			}
			if !(enc(v, i, true) > enc(v, i+1, true)) {
				t.Fatalf("%s desc: position %d not above %d (%v vs %v)", v.Type, i, i+1, v.Value(i), v.Value(i+1))
			}
		}
		// Equal values must encode equal both directions (stability ties).
		for i := 0; i < v.Len(); i++ {
			if enc(v, i, false) != enc(v, i, false) || enc(v, i, true) != enc(v, i, true) {
				t.Fatalf("%s: self-compare not equal at %d", v.Type, i)
			}
		}
	}

	// Self-delimiting across columns: (a, b) vs (ab, ...) must order by the
	// first column alone, desc included.
	pair := func(a, b string, desc bool) string {
		v := NewVec(String)
		v.AppendStr(a)
		v.AppendStr(b)
		return string(v.AppendSortKey(v.AppendSortKey(nil, 0, desc), 1, desc))
	}
	if !(pair("a", "zzz", false) < pair("ab", "", false)) {
		t.Fatal("asc multi-column string keys not ordered by first column")
	}
	if !(pair("a", "zzz", true) > pair("ab", "", true)) {
		t.Fatal("desc multi-column string keys not ordered by first column")
	}
}
