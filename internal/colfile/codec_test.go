package colfile

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
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

// footerBytes returns the JSON footer of a sealed file.
func footerBytes(t *testing.T, data []byte) []byte {
	t.Helper()
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
	if bytes.Contains(footerBytes(t, data), []byte("sketches")) {
		t.Fatal("data file footer carries sketches")
	}

	// Spill and exchange files: no sketches in the footer and none computed.
	spill, err := MarshalBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(footerBytes(t, spill), []byte("sketches")) {
		t.Fatal("spill file footer carries sketches")
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

	// A footer sealed with sketches (older files) still opens.
	legacy := bytes.Replace(footerBytes(t, data), []byte(`{"schema"`), []byte(`{"sketches":[{"rows":100}],"schema"`), 1)
	r, err := OpenReader(resealRaw(data, legacy))
	if err != nil {
		t.Fatalf("legacy footer: %v", err)
	}
	if got, err := r.ReadAll(); err != nil || !sameBatch(got, b) {
		t.Fatalf("legacy footer read = %v", err)
	}
}

// resealRaw replaces the footer bytes of a sealed file with fj verbatim.
func resealRaw(data, fj []byte) []byte {
	flen := binary.LittleEndian.Uint64(data[len(data)-12 : len(data)-4])
	out := append([]byte(nil), data[:uint64(len(data))-12-flen]...)
	out = append(out, fj...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(fj)))
	return append(out, fileMagic...)
}
