package manifest

import (
	"sync"
)

// SnapshotCache caches reconstructed table states per table, organized so
// any point-in-time snapshot can be served and incrementally advanced as new
// transactions commit (paper 3.2.1). Losing the cache never affects
// correctness: it is rebuilt by replay from the durable manifests.
type SnapshotCache struct {
	mu     sync.Mutex
	tables map[int64]*cachedTable
	// Hits and Misses count lookups for the whole cache.
	hits, misses int64
}

type cachedTable struct {
	// states holds cached snapshots keyed by sequence: those readers
	// reconstructed and Put, which serve time-travel reads, plus at most one
	// that Advance produced.
	states map[int64]*TableState
	latest int64
	// advanced reports that states[latest] was produced by Advance. No
	// caller holds that state (Get hands out clones), so the next Advance
	// rolls it forward in place instead of cloning it.
	advanced bool
}

// NewSnapshotCache returns an empty cache.
func NewSnapshotCache() *SnapshotCache {
	return &SnapshotCache{tables: make(map[int64]*cachedTable)}
}

// Get returns the cached snapshot of tableID as of seq, or nil.
func (c *SnapshotCache) Get(tableID, seq int64) *TableState {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[tableID]
	if !ok {
		c.misses++
		return nil
	}
	if seq < 0 {
		seq = t.latest
	}
	s, ok := t.states[seq]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	return s.Clone() // callers must not mutate cached state
}

// Put stores a snapshot.
func (c *SnapshotCache) Put(tableID int64, s *TableState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[tableID]
	if !ok {
		t = &cachedTable{states: make(map[int64]*TableState)}
		c.tables[tableID] = t
	}
	t.states[s.LastSeq] = s.Clone()
	if s.LastSeq >= t.latest {
		t.latest = s.LastSeq
		t.advanced = false
	}
}

// Advance applies a newly committed manifest to the cached latest snapshot,
// keeping the cache warm without a full replay. It is a no-op when the table
// is not cached or the sequence is not the immediate successor path. A
// latest snapshot that Advance itself produced is rolled forward in place,
// so a stream of commits keeps one advanced state rather than one per
// commit; a snapshot a reader Put is cloned first and stays cached.
func (c *SnapshotCache) Advance(tableID, seq int64, actions []Action) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[tableID]
	if !ok {
		return
	}
	base, ok := t.states[t.latest]
	if !ok || seq <= t.latest {
		return
	}
	next := base
	if t.advanced {
		delete(t.states, t.latest)
	} else {
		next = base.Clone()
	}
	if err := next.Apply(seq, actions); err != nil {
		// A replay error means the cache is stale relative to storage; drop
		// the table and force reconstruction.
		delete(c.tables, tableID)
		return
	}
	t.states[seq] = next
	t.latest = seq
	t.advanced = true
}

// Invalidate drops all cached snapshots for a table.
func (c *SnapshotCache) Invalidate(tableID int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.tables, tableID)
}

// Trim drops cached snapshots older than keepSeq for a table, bounding
// memory while preserving newer time-travel reads.
func (c *SnapshotCache) Trim(tableID, keepSeq int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[tableID]
	if !ok {
		return
	}
	for seq := range t.states {
		if seq < keepSeq && seq != t.latest {
			delete(t.states, seq)
		}
	}
}

// Stats returns cumulative hit/miss counts.
func (c *SnapshotCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
