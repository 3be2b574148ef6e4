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
	// heads records each table's newest commit sequence as NoteCommit saw
	// it, so Advance knows which state a commit applies to.
	heads map[int64]int64
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
	return &SnapshotCache{tables: make(map[int64]*cachedTable), heads: make(map[int64]int64)}
}

// NoteCommit records seq as tableID's newest commit and returns the
// sequence of the commit before it, or -1 when the cache has not seen one
// since the table was created or invalidated. Callers must note a table's
// commits in sequence order (under the catalog commit lock); the result is
// the prevSeq to pass to Advance.
func (c *SnapshotCache) NoteCommit(tableID, seq int64) (prevSeq int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev, ok := c.heads[tableID]
	if !ok {
		prev = -1
	}
	c.heads[tableID] = seq
	return prev
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
// keeping the cache warm without a full replay. prevSeq is the table's
// commit before seq, from NoteCommit (-1, unknown, matches no cached
// state). Commits may arrive here in any order, so the state is advanced
// only when the cached latest snapshot is exactly the one at prevSeq;
// otherwise (table not cached, predecessor not yet applied or unknown, a
// newer snapshot already cached) it is a no-op and readers reconstruct from
// the durable manifests. A latest snapshot that Advance itself produced is
// rolled forward in place, so a stream of commits keeps one advanced state
// rather than one per commit; a snapshot a reader Put is cloned first and
// stays cached.
func (c *SnapshotCache) Advance(tableID, prevSeq, seq int64, actions []Action) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[tableID]
	if !ok || t.latest != prevSeq {
		return
	}
	base, ok := t.states[t.latest]
	if !ok {
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

// Invalidate drops all cached snapshots for a table, and its noted head:
// the caller is rewriting the table's history, so the next commit's
// predecessor is unknown.
func (c *SnapshotCache) Invalidate(tableID int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.tables, tableID)
	delete(c.heads, tableID)
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
