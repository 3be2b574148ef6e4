package colfile

// Batch spill serialization: the executor's grace hash-join writes overflow
// partitions to the object store and reads them back partition by partition.
// A spill file is an ordinary sealed colfile holding one row group, so the
// spill path reuses the same encodings, zone maps and footer validation the
// durable storage path uses — a corrupt spill file fails OpenReader exactly
// like a corrupt data file would. Spill files carry no NDV sketches: they
// never reach a manifest, so nothing would read them.

// MarshalBatch serializes a batch as a single-row-group colfile. An empty
// batch yields a valid file with zero row groups (UnmarshalBatch returns an
// empty batch with the same schema).
func MarshalBatch(b *Batch) ([]byte, error) {
	w := NewWriter(b.Schema)
	w.noSketches = true
	if err := w.WriteBatch(b); err != nil {
		return nil, err
	}
	return w.Finish()
}

// UnmarshalBatch deserializes a batch written by MarshalBatch (or any sealed
// colfile) into a single in-memory batch.
func UnmarshalBatch(data []byte) (*Batch, error) {
	r, err := OpenReader(data)
	if err != nil {
		return nil, err
	}
	return r.ReadAll()
}

// rowMemSize estimates the bytes position i of the vector occupies in
// memory: the single accounting rule MemSize and RowMemSize both sum, so the
// whole-vector and row-at-a-time meters a spill budget compares cannot
// drift apart. Strings count their header plus byte length; a null bitmap
// entry counts when the bitmap exists.
func (v *Vec) rowMemSize(i int) int64 {
	var n int64
	switch v.Type {
	case String:
		n = 16 + int64(len(v.Strs[i]))
	case Bool:
		n = 1
	default:
		n = 8
	}
	if v.Nulls != nil {
		n++
	}
	return n
}

// MemSize estimates the in-memory footprint of the vector's payload in bytes:
// the quantity a memory budget meters.
func (v *Vec) MemSize() int64 {
	var n int64
	switch v.Type {
	case Int64:
		n = 8 * int64(len(v.Ints))
	case Float64:
		n = 8 * int64(len(v.Floats))
	case String:
		for _, s := range v.Strs {
			n += 16 + int64(len(s))
		}
	case Bool:
		n = int64(len(v.Bools))
	}
	return n + int64(len(v.Nulls))
}

// MemSize estimates the in-memory footprint of the batch in bytes.
func (b *Batch) MemSize() int64 {
	var n int64
	for _, v := range b.Cols {
		n += v.MemSize()
	}
	return n
}

// RowMemSize estimates the bytes row r of the batch contributes to MemSize —
// the incremental meter spill writers use to decide when to flush.
func (b *Batch) RowMemSize(r int) int64 {
	var n int64
	for _, v := range b.Cols {
		n += v.rowMemSize(r)
	}
	return n
}
