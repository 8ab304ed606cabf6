package uindex

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
)

// Snapshot is an immutable read view of the whole database's index set: at
// creation it pins the current version of every index tree, and every query
// through it answers from those versions no matter how many mutations
// commit afterwards. Writers are never blocked by an open snapshot — they
// keep committing new versions; the snapshot merely keeps the superseded
// pages it can reach alive until Release.
//
// A Snapshot is safe for concurrent use. Release it when done (idempotent);
// a long-lived snapshot holds superseded pages, so the page footprint grows
// with the write volume during its lifetime. Closing the database releases
// every snapshot still open: Close waits for the snapshot's in-flight
// queries to finish, then unpins its views, and later queries through it
// fail with ErrSnapshotReleased — epoch pins never outlive the database.
//
// The snapshot covers index state. Match fields resolved through the object
// store (the Obj pointer of a Match) read the store's latest state.
type Snapshot struct {
	db    *Database
	views map[string]*core.ShardedSnap
	order []string
	// inflight counts queries executing against the pinned views, so
	// Release (and through it, Database.Close) waits for them instead of
	// unpinning pages a scan is still walking. A counter rather than a
	// read lock: a QueryFunc callback may run further queries on the same
	// snapshot without a pending Release deadlocking them.
	mu       sync.Mutex // guards released and inflight.Add
	released bool
	inflight sync.WaitGroup
	// relMu is held across a whole Release, so a second Release — a racing
	// user call or Database.Close — returns only after the first has waited
	// out the in-flight queries and unpinned the views.
	relMu sync.Mutex
}

// Snapshot pins the current version of every index and returns the view.
func (db *Database) Snapshot() (*Snapshot, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	s := &Snapshot{
		db:    db,
		views: make(map[string]*core.ShardedSnap, len(db.order)),
		order: append([]string(nil), db.order...),
	}
	for _, name := range db.order {
		s.views[name] = db.groups[name].sharded.Snapshot()
	}
	db.snapMu.Lock()
	if db.snaps == nil {
		db.snaps = make(map[*Snapshot]struct{})
	}
	db.snaps[s] = struct{}{}
	db.snapMu.Unlock()
	db.ctrs.snapsTaken.Add(1)
	db.ctrs.snapsActive.Add(1)
	return s, nil
}

// releaseSnapshotsLocked releases every snapshot still open; the caller
// holds the catalog write lock (Close). Each Release waits for that
// snapshot's in-flight queries, so when this returns no query is touching
// the pools and files about to be torn down.
func (db *Database) releaseSnapshotsLocked() {
	db.snapMu.Lock()
	open := make([]*Snapshot, 0, len(db.snaps))
	for s := range db.snaps {
		open = append(open, s)
	}
	db.snaps = nil
	db.snapMu.Unlock()
	for _, s := range open {
		s.Release()
	}
}

// Release unpins every index version the snapshot holds, letting the engine
// reclaim pages superseded since. Release waits for the snapshot's
// in-flight queries to finish first. It is idempotent; queries after
// Release fail with ErrSnapshotReleased.
func (s *Snapshot) Release() error {
	s.relMu.Lock()
	defer s.relMu.Unlock()
	s.mu.Lock()
	if s.released {
		s.mu.Unlock()
		return nil
	}
	s.released = true
	s.mu.Unlock()
	s.inflight.Wait()
	var first error
	for _, name := range s.order {
		if err := s.views[name].Release(); err != nil && first == nil {
			first = err
		}
	}
	s.db.snapMu.Lock()
	delete(s.db.snaps, s)
	s.db.snapMu.Unlock()
	s.db.ctrs.snapsActive.Add(-1)
	return first
}

// Indexes lists the index names the snapshot covers, in creation order.
func (s *Snapshot) Indexes() []string {
	return append([]string(nil), s.order...)
}

// Epoch returns the pinned tree epoch of the named index; ok is false when
// the snapshot does not cover it.
func (s *Snapshot) Epoch(index string) (uint64, bool) {
	v, ok := s.views[index]
	if !ok {
		return 0, false
	}
	return v.Epoch(), true
}

// Query runs a query on the named index against the snapshot's pinned
// version and collects the matches. It accepts the same options as
// Database.Query; WithSnapshot is redundant here and ignored.
func (s *Snapshot) Query(ctx context.Context, index string, q Query, opts ...QueryOption) ([]Match, Stats, error) {
	return collect(func(fn func(Match) bool) (Stats, error) {
		return s.QueryFunc(ctx, index, q, fn, opts...)
	})
}

// QueryFunc runs a query like Query but streams each match to fn in key
// order instead of collecting them; fn returning false stops the scan. It
// is the query path every other one is built on, and it allocates nothing
// per match: matches of one attribute-value cluster share one Value, and
// each Path is carved from a chunked per-query arena, capped at its length.
// fn may retain the Match it receives — Value is immutable and Path is its
// own capacity-capped slice, so appending to it cannot overwrite another
// match. fn runs on the query's goroutine while the scan is in flight; it
// may run further queries, but must not Release the snapshot or close the
// database, which wait for the scan to finish.
func (s *Snapshot) QueryFunc(ctx context.Context, index string, q Query, fn func(Match) bool, opts ...QueryOption) (Stats, error) {
	return s.queryFunc(ctx, index, q, newQueryConfig(opts), fn)
}

func (s *Snapshot) queryFunc(ctx context.Context, index string, q Query, cfg queryConfig, fn func(Match) bool) (Stats, error) {
	s.mu.Lock()
	if s.released {
		s.mu.Unlock()
		return Stats{}, ErrSnapshotReleased
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()
	v, ok := s.views[index]
	if !ok {
		err := fmt.Errorf("uindex: no index %q: %w", index, ErrIndexNotFound)
		s.db.ctrs.countQuery(Stats{}, err)
		return Stats{}, err
	}
	stats, err := v.ExecuteCtx(ctx, q, cfg.execContext(), fn)
	s.db.ctrs.countQuery(stats, err)
	return stats, err
}

// collect runs a streaming query and gathers its matches into a slice; on
// error the matches streamed before it are returned with it.
func collect(run func(fn func(Match) bool) (Stats, error)) ([]Match, Stats, error) {
	var out []Match
	stats, err := run(func(m Match) bool {
		out = append(out, m)
		return true
	})
	return out, stats, err
}
