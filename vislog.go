package ankerdb

import "sort"

// The visibility log makes the snapshot-consistent visible row count an
// O(log n) binary search instead of an O(capacity) sweep of the birth
// and death arrays. Every commit that births or kills rows of a table
// appends one entry — its timestamp and the table's cumulative row
// delta — under the table's visibility shard lock, which also
// serialises the row-op installs themselves, so entries are strictly
// timestamp-ordered. COUNT at timestamp ts is then the initial row
// count plus the cumulative delta of the last entry at or below ts.
// The count doubles as the query engine's cardinality estimate.

// visDelta is one committed row-op batch: cum is the table's cumulative
// insert-minus-delete delta (including the compacted base) as of ts.
type visDelta struct {
	ts  uint64
	cum int64
}

// visLogState is the immutable published state of one table's log.
// Appends publish a new state that shares the entries backing array:
// readers of the old state are bounded by its length and never see the
// new element, so sharing is race-free under the atomic pointer's
// happens-before edge.
type visLogState struct {
	base    int64 // cumulative delta of entries compacted away
	entries []visDelta
}

// visLogAppend records a committed row-op batch at ts. The caller
// holds the table's visibility shard commit lock (the same lock that
// serialises the birth/death installs), so appends never race each
// other and arrive in commit-timestamp order; it must run before the
// commit's timestamp completes, so any reader that can see ts also
// sees the entry.
func (t *table) visLogAppend(ts uint64, delta int64) {
	s := t.visLog.Load()
	cum := s.base
	if n := len(s.entries); n > 0 {
		cum = s.entries[n-1].cum
	}
	t.visLog.Store(&visLogState{
		base:    s.base,
		entries: append(s.entries, visDelta{ts: ts, cum: cum + delta}),
	})
	t.pending.Add(1)
}

// visCountAt returns the number of rows visible at ts. ts must be at
// or above the GC floor the log was last compacted to — true for every
// registered reader timestamp (OLTP begin or pinned generation).
func (t *table) visCountAt(ts uint64) int64 {
	init := int64(t.st.InitialRows())
	s := t.visLog.Load()
	i := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].ts > ts })
	if i == 0 {
		return init + s.base
	}
	return init + s.entries[i-1].cum
}

// visLogCompact folds every entry at or below floor into the base.
// Called under all shard commit locks (reclaimTable): no reader at or
// above floor distinguishes the folded entries from the base.
func (t *table) visLogCompact(floor uint64) {
	s := t.visLog.Load()
	i := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].ts > floor })
	if i == 0 {
		return
	}
	t.visLog.Store(&visLogState{
		base:    s.entries[i-1].cum,
		entries: append([]visDelta(nil), s.entries[i:]...),
	})
}

// visLogReset seeds the log after recovery: the recovered arrays
// already reflect every durable row op, and every reachable read
// timestamp is at or above the re-seeded oracle's maximum — above
// every durable event — so the whole history collapses into base.
func (t *table) visLogReset(base int64) {
	t.visLog.Store(&visLogState{base: base})
}

// visLogInit gives a fresh table an empty log.
func (t *table) visLogInit() {
	t.visLog.Store(&visLogState{})
}

// visLogLen returns the number of uncompacted entries (tests).
func (t *table) visLogLen() int { return len(t.visLog.Load().entries) }
