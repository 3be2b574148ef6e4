// Package objectstore simulates the cloud object store (ADLS / OneLake) that
// Polaris disaggregates all state into. It implements the subset of the Azure
// Block Blob API the paper's transaction manager depends on:
//
//   - StageBlock uploads an identified block without making it visible.
//   - CommitBlockList atomically publishes a blob consisting of exactly the
//     listed blocks, in order; staged blocks not named in the list are
//     discarded (this is how Polaris drops the work of failed task attempts).
//   - Whole-blob Put/Get/Delete/List for data files and checkpoints.
//
// The store is in-process and thread-safe. A LatencyModel approximates cloud
// storage behaviour (per-operation base latency plus throughput-proportional
// transfer time) and a FaultInjector can return transient errors so the DCP's
// retry machinery is exercised the way real ADLS exercises it.
package objectstore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Common errors returned by the store.
var (
	ErrNotFound      = errors.New("objectstore: blob not found")
	ErrBlockNotFound = errors.New("objectstore: staged block not found")
	ErrAlreadyExists = errors.New("objectstore: blob already exists")
	ErrTransient     = errors.New("objectstore: transient storage error")
)

// BlobInfo describes a committed blob.
type BlobInfo struct {
	Name    string
	Size    int64
	Created time.Time
	// CreatorStamp is an opaque transaction timestamp recorded at creation;
	// garbage collection uses it to fence files of in-flight transactions
	// (paper Section 5.3).
	CreatorStamp int64
}

// Metrics counts operations against the store. All fields are monotonic.
type Metrics struct {
	Puts, Gets, Deletes, Lists  int64
	StagedBlocks, CommitsBlocks int64
	BytesWritten, BytesRead     int64
	TransientErrors             int64
}

type blob struct {
	data    []byte
	info    BlobInfo
	blocks  []string // committed block list, in order
	blkData map[string][]byte
}

// Store is an in-process object store with Block Blob semantics.
type Store struct {
	mu      sync.RWMutex
	blobs   map[string]*blob
	staged  map[string]map[string]stagedBlock // blobName -> blockID -> data
	latency *LatencyModel
	faults  *FaultInjector
	clock   func() time.Time
	metrics Metrics
}

type stagedBlock struct {
	data   []byte
	staged time.Time
}

// Option configures a Store.
type Option func(*Store)

// WithLatency attaches a latency model; nil disables simulated latency.
func WithLatency(m *LatencyModel) Option { return func(s *Store) { s.latency = m } }

// WithFaults attaches a fault injector; nil disables fault injection.
func WithFaults(f *FaultInjector) Option { return func(s *Store) { s.faults = f } }

// WithClock overrides the time source (tests).
func WithClock(now func() time.Time) Option { return func(s *Store) { s.clock = now } }

// New creates an empty store.
func New(opts ...Option) *Store {
	s := &Store{
		blobs:  make(map[string]*blob),
		staged: make(map[string]map[string]stagedBlock),
		clock:  time.Now,
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

func (s *Store) now() time.Time { return s.clock() }

func (s *Store) simulate(op OpKind, bytes int) error {
	if s.faults != nil {
		if err := s.faults.maybeFail(op); err != nil {
			s.mu.Lock()
			s.metrics.TransientErrors++
			s.mu.Unlock()
			return err
		}
	}
	if s.latency != nil {
		s.latency.apply(op, bytes)
	}
	return nil
}

// Put atomically creates or replaces a whole blob.
func (s *Store) Put(name string, data []byte, creatorStamp int64) error {
	if err := s.simulate(OpPut, len(data)); err != nil {
		return err
	}
	cp := append([]byte(nil), data...)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blobs[name] = &blob{
		data: cp,
		info: BlobInfo{Name: name, Size: int64(len(cp)), Created: s.now(), CreatorStamp: creatorStamp},
	}
	s.metrics.Puts++
	s.metrics.BytesWritten += int64(len(cp))
	return nil
}

// PutIfAbsent creates a blob only if it does not already exist.
func (s *Store) PutIfAbsent(name string, data []byte, creatorStamp int64) error {
	if err := s.simulate(OpPut, len(data)); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blobs[name]; ok {
		return fmt.Errorf("%w: %s", ErrAlreadyExists, name)
	}
	cp := append([]byte(nil), data...)
	s.blobs[name] = &blob{
		data: cp,
		info: BlobInfo{Name: name, Size: int64(len(cp)), Created: s.now(), CreatorStamp: creatorStamp},
	}
	s.metrics.Puts++
	s.metrics.BytesWritten += int64(len(cp))
	return nil
}

// Get returns a copy of the blob contents.
func (s *Store) Get(name string) ([]byte, error) {
	s.mu.RLock()
	b, ok := s.blobs[name]
	var n int
	if ok {
		n = len(b.data)
	}
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if err := s.simulate(OpGet, n); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.metrics.Gets++
	s.metrics.BytesRead += int64(n)
	s.mu.Unlock()
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok = s.blobs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return append([]byte(nil), b.data...), nil
}

// GetRange returns length bytes starting at offset. A negative length reads to
// the end. Reading past the end returns what is available.
func (s *Store) GetRange(name string, offset, length int64) ([]byte, error) {
	s.mu.RLock()
	b, ok := s.blobs[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	s.mu.RLock()
	data := b.data
	if offset < 0 {
		offset = 0
	}
	if offset > int64(len(data)) {
		offset = int64(len(data))
	}
	end := int64(len(data))
	if length >= 0 && offset+length < end {
		end = offset + length
	}
	out := append([]byte(nil), data[offset:end]...)
	s.mu.RUnlock()
	if err := s.simulate(OpGet, len(out)); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.metrics.Gets++
	s.metrics.BytesRead += int64(len(out))
	s.mu.Unlock()
	return out, nil
}

// Head returns blob metadata without reading its contents.
func (s *Store) Head(name string) (BlobInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.blobs[name]
	if !ok {
		return BlobInfo{}, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return b.info, nil
}

// Exists reports whether a committed blob exists.
func (s *Store) Exists(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.blobs[name]
	return ok
}

// Delete removes a blob. Deleting a missing blob is an error so callers
// (garbage collection) can detect double-frees.
func (s *Store) Delete(name string) error {
	if err := s.simulate(OpDelete, 0); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blobs[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	delete(s.blobs, name)
	s.metrics.Deletes++
	return nil
}

// List returns the names of committed blobs with the given prefix, sorted.
func (s *Store) List(prefix string) []string {
	s.mu.RLock()
	names := make([]string, 0, 16)
	for name := range s.blobs {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	s.mu.RUnlock()
	_ = s.simulate(OpList, 0)
	s.mu.Lock()
	s.metrics.Lists++
	s.mu.Unlock()
	sort.Strings(names)
	return names
}

// ListInfo returns metadata for committed blobs with the given prefix, sorted
// by name.
func (s *Store) ListInfo(prefix string) []BlobInfo {
	s.mu.RLock()
	infos := make([]BlobInfo, 0, 16)
	for name, b := range s.blobs {
		if strings.HasPrefix(name, prefix) {
			infos = append(infos, b.info)
		}
	}
	s.mu.RUnlock()
	_ = s.simulate(OpList, 0)
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// StageBlock uploads a block for the named blob without making it visible.
// Block IDs must be unique per writer attempt; re-staging the same ID
// overwrites the staged payload, matching Azure semantics.
func (s *Store) StageBlock(blobName, blockID string, data []byte) error {
	if err := s.simulate(OpStage, len(data)); err != nil {
		return err
	}
	cp := append([]byte(nil), data...)
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.staged[blobName]
	if !ok {
		m = make(map[string]stagedBlock)
		s.staged[blobName] = m
	}
	m[blockID] = stagedBlock{data: cp, staged: s.now()}
	s.metrics.StagedBlocks++
	s.metrics.BytesWritten += int64(len(cp))
	return nil
}

// CommitBlockList atomically publishes the blob as the concatenation of the
// listed blocks, in order. Each listed ID may name either a staged block or a
// block already committed to this blob (Azure's "latest" semantics); this is
// what lets the SQL FE append a statement's new blocks to the previously
// committed list for multi-statement transactions (paper Section 3.2.3).
// All staged blocks for the blob that are not in the list are discarded.
func (s *Store) CommitBlockList(blobName string, blockIDs []string, creatorStamp int64) error {
	if err := s.simulate(OpCommit, 0); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	staged := s.staged[blobName]
	var committed map[string][]byte
	if b, ok := s.blobs[blobName]; ok {
		committed = b.blkData
	}
	blocks := make([][]byte, len(blockIDs))
	size := 0
	for i, id := range blockIDs {
		if sb, ok := staged[id]; ok {
			blocks[i] = sb.data
		} else if cb, ok := committed[id]; ok {
			blocks[i] = cb
		} else {
			return fmt.Errorf("%w: blob %s block %s", ErrBlockNotFound, blobName, id)
		}
		size += len(blocks[i])
	}
	// Each committed block is a capacity-capped window of the blob's bytes,
	// so the blob is held once rather than once more as its blocks.
	newData := make([]byte, 0, size)
	newBlkData := make(map[string][]byte, len(blockIDs))
	for i, id := range blockIDs {
		start := len(newData)
		newData = append(newData, blocks[i]...)
		newBlkData[id] = newData[start:len(newData):len(newData)]
	}
	created := s.now()
	if prev, ok := s.blobs[blobName]; ok {
		created = prev.info.Created // keep original creation stamp for GC fencing
		if creatorStamp == 0 {
			creatorStamp = prev.info.CreatorStamp
		}
	}
	s.blobs[blobName] = &blob{
		data:    newData,
		info:    BlobInfo{Name: blobName, Size: int64(len(newData)), Created: created, CreatorStamp: creatorStamp},
		blocks:  append([]string(nil), blockIDs...),
		blkData: newBlkData,
	}
	delete(s.staged, blobName) // uncommitted blocks are discarded
	s.metrics.CommitsBlocks++
	return nil
}

// CommittedBlockList returns the IDs of the blocks that make up a committed
// blob, in order. Blobs written with Put report an empty list.
func (s *Store) CommittedBlockList(blobName string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.blobs[blobName]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, blobName)
	}
	return append([]string(nil), b.blocks...), nil
}

// StagedBlockIDs returns the IDs of blocks staged but not yet committed for a
// blob, sorted. Used by tests and by garbage collection of abandoned writes.
func (s *Store) StagedBlockIDs(blobName string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]string, 0, len(s.staged[blobName]))
	for id := range s.staged[blobName] {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// DiscardStaged drops all uncommitted blocks for a blob (abort path).
func (s *Store) DiscardStaged(blobName string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.staged, blobName)
}

// Snapshot of current metrics.
func (s *Store) Metrics() Metrics {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.metrics
}

// TotalSize returns the sum of committed blob sizes (storage footprint).
func (s *Store) TotalSize() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, b := range s.blobs {
		n += b.info.Size
	}
	return n
}

// Count returns the number of committed blobs.
func (s *Store) Count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blobs)
}
