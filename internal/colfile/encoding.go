package colfile

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// Column-chunk encodings. The writer picks automatically: dictionary when a
// string column has few distinct values, run-length when an int column has
// long runs, plain otherwise.
const (
	encPlain byte = iota
	encDict
	encRLE
)

// Chunks compress and decompress through pooled codec state. A
// flate.Writer carries ~1 MB of compressor tables and a reader a 32 KB
// window; building them per chunk costs more than encoding a typical chunk.
// Reset makes a pooled writer equivalent to a new one, so chunk bytes do not
// depend on which pooled instance produced them.
var (
	chunkEncoders = sync.Pool{New: func() any {
		fw, _ := flate.NewWriter(nil, flate.BestSpeed) // errors only on a bad level
		return &chunkEncoder{fw: fw}
	}}
	chunkDecoders = sync.Pool{New: func() any {
		return &chunkDecoder{fr: flate.NewReader(nil)}
	}}
)

// chunkEncoder is the pooled per-encode state: the uncompressed scratch and
// the flate writer.
type chunkEncoder struct {
	raw bytes.Buffer
	fw  *flate.Writer
}

// chunkDecoder is the pooled per-decode state: the compressed-input reader,
// the flate reader over it, and the decompressed scratch. Decoded vectors
// never alias raw (every string is copied out), so the scratch is reusable.
type chunkDecoder struct {
	src bytes.Reader
	fr  io.ReadCloser
	raw bytes.Buffer
}

// maxPooledBuf caps the scratch a pooled codec keeps, so one huge bulk-load
// chunk does not stay resident behind many small ones.
const maxPooledBuf = 1 << 20

// resetScratch empties b for reuse, dropping its memory when oversized.
func resetScratch(b *bytes.Buffer) {
	if b.Cap() > maxPooledBuf {
		*b = bytes.Buffer{}
		return
	}
	b.Reset()
}

// encodeChunk appends one column vector to dst:
//
//	[encoding byte][null section][payload], flate-compressed.
func encodeChunk(dst *bytes.Buffer, v *Vec) error {
	e := chunkEncoders.Get().(*chunkEncoder)
	defer func() {
		resetScratch(&e.raw)
		chunkEncoders.Put(e)
	}()
	encodeRaw(&e.raw, v)
	e.fw.Reset(dst)
	if _, err := e.fw.Write(e.raw.Bytes()); err != nil {
		return err
	}
	return e.fw.Close()
}

// encodeRaw writes the uncompressed chunk encoding of v to raw.
func encodeRaw(raw *bytes.Buffer, v *Vec) {
	enc := chooseEncoding(v)
	raw.WriteByte(enc)
	writeNulls(raw, v)
	switch enc {
	case encPlain:
		encodePlain(raw, v)
	case encDict:
		encodeDict(raw, v)
	case encRLE:
		encodeRLE(raw, v)
	}
}

// decodeChunk reverses encodeChunk. n is the row count recorded in the footer.
func decodeChunk(data []byte, t DataType, n int) (*Vec, error) {
	d := chunkDecoders.Get().(*chunkDecoder)
	defer func() {
		resetScratch(&d.raw)
		chunkDecoders.Put(d)
	}()
	d.src.Reset(data)
	if err := d.fr.(flate.Resetter).Reset(&d.src, nil); err != nil {
		return nil, fmt.Errorf("colfile: decompress chunk: %w", err)
	}
	if _, err := d.raw.ReadFrom(d.fr); err != nil {
		return nil, fmt.Errorf("colfile: decompress chunk: %w", err)
	}
	raw := d.raw.Bytes()
	if len(raw) == 0 {
		return nil, errors.New("colfile: empty chunk")
	}
	buf := bytes.NewReader(raw[1:])
	v := NewVec(t)
	nulls, err := readNulls(buf, n)
	if err != nil {
		return nil, err
	}
	switch {
	case raw[0] == encPlain:
		err = decodePlain(buf, v, n)
	case raw[0] == encDict && t == String:
		err = decodeDict(buf, v, n)
	case raw[0] == encRLE && t == Int64:
		err = decodeRLE(buf, v, n)
	default:
		return nil, fmt.Errorf("colfile: encoding %d invalid for %v column", raw[0], t)
	}
	if err != nil {
		return nil, err
	}
	v.Nulls = nulls
	return v, nil
}

func chooseEncoding(v *Vec) byte {
	switch v.Type {
	case String:
		if v.Len() >= 16 {
			distinct := make(map[string]struct{}, 64)
			for _, s := range v.Strs {
				distinct[s] = struct{}{}
				if len(distinct) > v.Len()/4 {
					return encPlain
				}
			}
			return encDict
		}
	case Int64:
		if v.Len() >= 16 {
			runs := 1
			for i := 1; i < len(v.Ints); i++ {
				if v.Ints[i] != v.Ints[i-1] {
					runs++
				}
			}
			if runs <= v.Len()/4 {
				return encRLE
			}
		}
	}
	return encPlain
}

func writeNulls(w *bytes.Buffer, v *Vec) {
	if v.Nulls == nil {
		w.WriteByte(0)
		return
	}
	any := false
	for _, b := range v.Nulls {
		if b {
			any = true
			break
		}
	}
	if !any {
		w.WriteByte(0)
		return
	}
	w.WriteByte(1)
	// bit-packed null bitmap
	nb := (len(v.Nulls) + 7) / 8
	bits := make([]byte, nb)
	for i, isNull := range v.Nulls {
		if isNull {
			bits[i/8] |= 1 << (i % 8)
		}
	}
	w.Write(bits)
}

func readNulls(r *bytes.Reader, n int) ([]bool, error) {
	flag, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("colfile: null flag: %w", err)
	}
	if flag == 0 {
		return nil, nil
	}
	nb := n / 8
	if n%8 != 0 {
		nb++
	}
	if nb > r.Len() {
		return nil, fmt.Errorf("colfile: null bitmap of %d rows exceeds %d chunk bytes", n, r.Len())
	}
	bits := make([]byte, nb)
	if _, err := io.ReadFull(r, bits); err != nil {
		return nil, fmt.Errorf("colfile: null bitmap: %w", err)
	}
	nulls := make([]bool, n)
	for i := range nulls {
		nulls[i] = bits[i/8]&(1<<(i%8)) != 0
	}
	return nulls, nil
}

func encodePlain(w *bytes.Buffer, v *Vec) {
	switch v.Type {
	case Int64:
		var tmp [binary.MaxVarintLen64]byte
		for _, x := range v.Ints {
			n := binary.PutVarint(tmp[:], x)
			w.Write(tmp[:n])
		}
	case Float64:
		var tmp [8]byte
		for _, x := range v.Floats {
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(x))
			w.Write(tmp[:])
		}
	case String:
		var tmp [binary.MaxVarintLen64]byte
		for _, s := range v.Strs {
			n := binary.PutUvarint(tmp[:], uint64(len(s)))
			w.Write(tmp[:n])
			w.WriteString(s)
		}
	case Bool:
		for _, b := range v.Bools {
			if b {
				w.WriteByte(1)
			} else {
				w.WriteByte(0)
			}
		}
	}
}

// fitRows rejects a row count the remaining chunk bytes cannot hold at
// minBytes bytes per row, before anything is sized from it.
func fitRows(r *bytes.Reader, n, minBytes int) error {
	if n > r.Len()/minBytes {
		return fmt.Errorf("colfile: %d rows exceed %d chunk bytes", n, r.Len())
	}
	return nil
}

func decodePlain(r *bytes.Reader, v *Vec, n int) error {
	minBytes := 1 // varint, length prefix or bool byte
	if v.Type == Float64 {
		minBytes = 8
	}
	if err := fitRows(r, n, minBytes); err != nil {
		return err
	}
	switch v.Type {
	case Int64:
		v.Ints = make([]int64, n)
		for i := 0; i < n; i++ {
			x, err := binary.ReadVarint(r)
			if err != nil {
				return fmt.Errorf("colfile: int64 value %d: %w", i, err)
			}
			v.Ints[i] = x
		}
	case Float64:
		v.Floats = make([]float64, n)
		var tmp [8]byte
		for i := 0; i < n; i++ {
			if _, err := io.ReadFull(r, tmp[:]); err != nil {
				return fmt.Errorf("colfile: float64 value %d: %w", i, err)
			}
			v.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(tmp[:]))
		}
	case String:
		v.Strs = make([]string, n)
		for i := 0; i < n; i++ {
			l, err := binary.ReadUvarint(r)
			if err != nil {
				return fmt.Errorf("colfile: string len %d: %w", i, err)
			}
			if l > uint64(r.Len()) {
				return fmt.Errorf("colfile: string len %d exceeds %d chunk bytes", l, r.Len())
			}
			b := make([]byte, l)
			if _, err := io.ReadFull(r, b); err != nil {
				return fmt.Errorf("colfile: string value %d: %w", i, err)
			}
			v.Strs[i] = string(b)
		}
	case Bool:
		v.Bools = make([]bool, n)
		for i := 0; i < n; i++ {
			b, err := r.ReadByte()
			if err != nil {
				return fmt.Errorf("colfile: bool value %d: %w", i, err)
			}
			v.Bools[i] = b != 0
		}
	}
	return nil
}

func encodeDict(w *bytes.Buffer, v *Vec) {
	dict := make(map[string]uint64, 64)
	var order []string
	for _, s := range v.Strs {
		if _, ok := dict[s]; !ok {
			dict[s] = uint64(len(order))
			order = append(order, s)
		}
	}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(order)))
	w.Write(tmp[:n])
	for _, s := range order {
		n = binary.PutUvarint(tmp[:], uint64(len(s)))
		w.Write(tmp[:n])
		w.WriteString(s)
	}
	for _, s := range v.Strs {
		n = binary.PutUvarint(tmp[:], dict[s])
		w.Write(tmp[:n])
	}
}

func decodeDict(r *bytes.Reader, v *Vec, n int) error {
	dn, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("colfile: dict size: %w", err)
	}
	if dn > uint64(r.Len()) {
		return fmt.Errorf("colfile: dict size %d exceeds %d chunk bytes", dn, r.Len())
	}
	dict := make([]string, dn)
	for i := range dict {
		l, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("colfile: dict entry len %d: %w", i, err)
		}
		if l > uint64(r.Len()) {
			return fmt.Errorf("colfile: dict entry len %d exceeds %d chunk bytes", l, r.Len())
		}
		b := make([]byte, l)
		if _, err := io.ReadFull(r, b); err != nil {
			return fmt.Errorf("colfile: dict entry %d: %w", i, err)
		}
		dict[i] = string(b)
	}
	if err := fitRows(r, n, 1); err != nil {
		return err
	}
	v.Strs = make([]string, n)
	for i := 0; i < n; i++ {
		idx, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("colfile: dict code %d: %w", i, err)
		}
		if idx >= dn {
			return fmt.Errorf("colfile: dict code %d out of range", idx)
		}
		v.Strs[i] = dict[idx]
	}
	return nil
}

func encodeRLE(w *bytes.Buffer, v *Vec) {
	var tmp [binary.MaxVarintLen64]byte
	i := 0
	for i < len(v.Ints) {
		j := i
		for j < len(v.Ints) && v.Ints[j] == v.Ints[i] {
			j++
		}
		n := binary.PutVarint(tmp[:], v.Ints[i])
		w.Write(tmp[:n])
		n = binary.PutUvarint(tmp[:], uint64(j-i))
		w.Write(tmp[:n])
		i = j
	}
}

func decodeRLE(r *bytes.Reader, v *Vec, n int) error {
	// Runs let few bytes stand for many rows, so the column is sized only
	// after a first pass has checked that the runs add up to exactly n.
	scan := *r
	if err := forEachRun(&scan, n, func(int64, int) {}); err != nil {
		return err
	}
	v.Ints = make([]int64, 0, n)
	return forEachRun(r, n, func(val int64, run int) {
		for ; run > 0; run-- {
			v.Ints = append(v.Ints, val)
		}
	})
}

// forEachRun reads (value, run) pairs covering exactly n rows.
func forEachRun(r *bytes.Reader, n int, emit func(val int64, run int)) error {
	for total := 0; total < n; {
		val, err := binary.ReadVarint(r)
		if err != nil {
			return fmt.Errorf("colfile: rle value: %w", err)
		}
		run, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("colfile: rle run: %w", err)
		}
		if run == 0 || run > uint64(n-total) {
			return fmt.Errorf("colfile: rle run %d overflows %d rows", run, n)
		}
		emit(val, int(run))
		total += int(run)
	}
	return nil
}
