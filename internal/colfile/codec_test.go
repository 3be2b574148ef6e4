package colfile

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// encodeToBytes runs encodeChunk into a fresh buffer.
func encodeToBytes(v *Vec) ([]byte, error) {
	var b bytes.Buffer
	err := encodeChunk(&b, v)
	return b.Bytes(), err
}

// freshFlateChunk is the reference encoding: the same raw chunk compressed
// by a newly constructed BestSpeed writer, as every chunk was before the
// codecs were pooled.
func freshFlateChunk(t *testing.T, v *Vec) []byte {
	t.Helper()
	var raw, out bytes.Buffer
	encodeRaw(&raw, v)
	fw, err := flate.NewWriter(&out, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(raw.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// codecVec builds a 64-row vector of type typ. Low-cardinality shapes make
// chooseEncoding pick dictionary (strings) or run-length (ints); the
// high-cardinality shape stays plain. nulls selects the NULL pattern.
func codecVec(typ DataType, lowCard bool, nulls string) *Vec {
	v := NewVec(typ)
	const n = 64
	for i := 0; i < n; i++ {
		x := i * 7919
		if lowCard {
			x = i / 16
		}
		if nulls == "all" || (nulls == "some" && i%5 == 2) {
			v.AppendNull()
			continue
		}
		switch typ {
		case Int64:
			v.AppendInt(int64(x))
		case Float64:
			v.AppendFloat(float64(x) / 3)
		case String:
			v.AppendStr(fmt.Sprintf("s%d", x))
		case Bool:
			v.AppendBool(x%3 == 0)
		}
	}
	if nulls == "bitmap-no-nulls" {
		v.Nulls = make([]bool, n)
	}
	return v
}

func TestPooledEncodeMatchesFreshWriter(t *testing.T) {
	seen := map[string]bool{}
	for _, typ := range []DataType{Int64, Float64, String, Bool} {
		for _, lowCard := range []bool{false, true} {
			for _, nulls := range []string{"none", "bitmap-no-nulls", "some", "all"} {
				name := fmt.Sprintf("%v/lowcard=%v/nulls=%s", typ, lowCard, nulls)
				v := codecVec(typ, lowCard, nulls)
				seen[fmt.Sprintf("%d/%s", chooseEncoding(v), nulls)] = true
				want := freshFlateChunk(t, v)
				// Twice, so the second pass runs on a writer the first returned.
				for pass := 0; pass < 2; pass++ {
					got, err := encodeToBytes(v)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s pass %d: pooled chunk differs from a fresh BestSpeed writer", name, pass)
					}
					back, err := decodeChunk(got, typ, v.Len())
					if err != nil {
						t.Fatalf("%s: decode: %v", name, err)
					}
					for i := 0; i < v.Len(); i++ {
						if !bytes.Equal(back.AppendKey(nil, i), v.AppendKey(nil, i)) {
							t.Fatalf("%s: row %d differs after round trip", name, i)
						}
					}
				}
			}
		}
	}
	for _, enc := range []byte{encPlain, encDict, encRLE} {
		for _, nulls := range []string{"none", "bitmap-no-nulls", "all"} {
			if !seen[fmt.Sprintf("%d/%s", enc, nulls)] {
				t.Errorf("no case encodes %d with nulls=%s; covered: %v", enc, nulls, seen)
			}
		}
	}
}

// TestConcurrentCodecPools hammers the shared writer and decoder pools from
// several goroutines, mixing valid chunks with corrupt ones; run under
// -race by `make race`.
func TestConcurrentCodecPools(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			typ := []DataType{Int64, Float64, String, Bool}[g%4]
			v := codecVec(typ, g%2 == 0, []string{"none", "some"}[g/4%2])
			for iter := 0; iter < 50; iter++ {
				data, err := encodeToBytes(v)
				if err != nil {
					errs <- err
					return
				}
				if iter%3 == 0 {
					bad := append([]byte(nil), data...)
					bad[len(bad)/2] ^= 0xff
					_, _ = decodeChunk(bad, typ, v.Len())
				}
				back, err := decodeChunk(data, typ, v.Len())
				if err != nil {
					errs <- err
					return
				}
				for i := 0; i < v.Len(); i++ {
					if !bytes.Equal(back.AppendKey(nil, i), v.AppendKey(nil, i)) {
						errs <- fmt.Errorf("goroutine %d iter %d: row %d differs", g, iter, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// footerBytes returns the footer of a sealed file.
func footerBytes(data []byte) []byte {
	flen := binary.LittleEndian.Uint64(data[len(data)-12 : len(data)-4])
	return data[uint64(len(data))-12-flen : len(data)-12]
}

func TestFootersCarryNoSketches(t *testing.T) {
	schema := Schema{{Name: "a", Type: Int64}, {Name: "s", Type: String}}
	b := NewBatch(schema)
	for i := 0; i < 100; i++ {
		b.Cols[0].AppendInt(int64(i % 10))
		b.Cols[1].AppendStr(fmt.Sprintf("v%d", i%5))
	}

	// Data files: the writer still hands sketches to the manifest action,
	// but the sealed footer does not repeat them.
	w := NewWriter(schema)
	if err := w.WriteBatch(b); err != nil {
		t.Fatal(err)
	}
	if sk := w.Sketches(); len(sk) != 2 || sk[0].Rows != 100 || sk[0].NDV() < 9 || sk[0].NDV() > 11 {
		t.Fatalf("writer sketches = %+v, want 2 columns of 100 rows, k NDV ≈ 10", sk)
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}

	// Spill and exchange files: none computed, and the same file bytes as
	// the sketching writer's.
	spill, err := MarshalBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(spill, data) {
		t.Fatal("spill file differs from the data file of the same batch")
	}
	sketching := testing.AllocsPerRun(20, func() {
		w := NewWriter(schema)
		_ = w.WriteBatch(b)
		_, _ = w.Finish()
	})
	spilling := testing.AllocsPerRun(20, func() { _, _ = MarshalBatch(b) })
	if spilling >= sketching {
		t.Fatalf("MarshalBatch allocs/op = %.0f, sketching writer = %.0f: spill files still observe sketches", spilling, sketching)
	}
}

// TestFooterRoundTrip encodes random footers (random schemas including
// empty names and out-of-range types, absent or present zone maps, empty
// strings, negative fields, zero row groups, chunk counts that disagree with
// the schema) and requires decoding to return exactly the footer encoded.
func TestFooterRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	str := func() string {
		b := make([]byte, rng.Intn(4)*rng.Intn(40))
		rng.Read(b)
		return string(b)
	}
	num := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return -rng.Int63()
		case 2:
			return int64(rng.Intn(300))
		}
		return rng.Int63()
	}
	for iter := 0; iter < 500; iter++ {
		var m footer
		for c := rng.Intn(6); c > 0; c-- {
			m.Schema = append(m.Schema, Field{Name: str(), Type: DataType(rng.Intn(6))})
		}
		if rng.Intn(2) == 0 {
			m.SortedBy = str()
		}
		m.NumRows = num()
		for g := rng.Intn(4); g > 0; g-- {
			rg := rowGroupMeta{NumRows: int(num())}
			for c := rng.Intn(len(m.Schema) + 2); c > 0; c-- {
				ch := chunkMeta{Offset: num(), Length: num()}
				st := &ch.Stats
				st.NullCount = int(num())
				// Each statistic is independently absent or present.
				present := rng.Intn(64)
				if present&1 != 0 {
					st.MinInt = ptr(num())
				}
				if present&2 != 0 {
					st.MaxInt = ptr(num())
				}
				if present&4 != 0 {
					st.MinFloat = ptr(math.Inf(-1))
				}
				if present&8 != 0 {
					st.MaxFloat = ptr(rng.NormFloat64() * 1e9)
				}
				if present&16 != 0 {
					st.MinStr = ptr("")
				}
				if present&32 != 0 {
					st.MaxStr = ptr(str())
				}
				rg.Chunks = append(rg.Chunks, ch)
			}
			m.RowGroups = append(m.RowGroups, rg)
		}
		enc := appendFooter(nil, &m)
		got, err := decodeFooter(enc)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("iter %d: decoded %+v, encoded %+v", iter, got, m)
		}
	}
}

// resealRaw replaces the footer bytes of a sealed file with fb verbatim.
func resealRaw(data, fb []byte) []byte {
	flen := binary.LittleEndian.Uint64(data[len(data)-12 : len(data)-4])
	out := append([]byte(nil), data[:uint64(len(data))-12-flen]...)
	out = append(out, fb...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(fb)))
	return append(out, fileMagic...)
}
