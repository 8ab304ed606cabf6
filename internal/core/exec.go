package core

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/btree"
	"repro/internal/pager"
)

// Algorithm selects the retrieval strategy.
type Algorithm int

const (
	// Parallel is Algorithm 1 of the paper (Parscan): one multi-interval
	// descent of the B-tree; shared pages are read once, irrelevant
	// subtrees are pruned, and mismatching clusters are skipped via the
	// parent-node skip.
	Parallel Algorithm = iota
	// Forward is the baseline of Section 3.3: find the first relevant
	// entry with a standard B-tree search, then scan the leaf chain
	// forward across the whole spanned range, filtering.
	Forward
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case Parallel:
		return "parallel"
	case Forward:
		return "forward"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Stats reports the cost of one query execution, in the units the paper's
// experiments use.
type Stats struct {
	Algorithm      Algorithm
	PagesRead      int // distinct pages fetched (Section 5 metric)
	EntriesScanned int // index entries inspected
	Matches        int
	Intervals      int // search intervals after compilation
	// CPU-cost counters of the zero-copy read path (this repo's metric,
	// not the paper's — the paper models I/O only): node fetches served
	// by the shared decoded-node cache vs. decoded from page bytes, and
	// how many entry bytes those decodes materialized. Orthogonal to
	// PagesRead, which is counted before any cache is consulted.
	NodeCacheHits   int
	NodeCacheMisses int
	BytesDecoded    int64
	// PrefetchIssued counts pages the scan handed to the background
	// frontier prefetcher (0 when prefetch is off or unsupported).
	// Accounting only: prefetched pages are never Touched, so PagesRead
	// is identical with prefetching on or off.
	PrefetchIssued int
}

// ExecContext is the mutable per-query execution state: the page tracker,
// the algorithm choice, and the accumulated cost counters. Every
// Query/ExecuteFunc call that is not handed one explicitly gets a fresh
// ExecContext, so two concurrent Parscan descents never share mutable
// state — this is the unit the engine's "any number of readers" contract
// is built from. An ExecContext must not be shared between goroutines;
// combine per-goroutine contexts afterwards with Tracker.Merge (the
// distinct-page union is identical to a sequential run under one shared
// tracker).
//
// Reusing one ExecContext across several sequential queries reproduces the
// paper's buffered experiment model: the tracker deduplicates pages across
// the whole sequence, Stats.PagesRead reports cumulative distinct pages,
// and the scan counters accumulate.
type ExecContext struct {
	// Tracker deduplicates page reads. NewExecContext allocates one; a
	// zero-value ExecContext lazily gets one on first use.
	Tracker *pager.Tracker
	// Algorithm is the retrieval strategy for queries run under this
	// context.
	Algorithm Algorithm
	// Stats accumulates cost over every query executed with this context.
	Stats Stats
	// shardTrackers are the per-shard page trackers of sharded executions.
	// Shard files have independent page-id spaces, so one shared tracker
	// would wrongly deduplicate across files; each shard gets its own and
	// the reported PagesRead is the sum of per-shard distinct counts. They
	// persist across queries on the context, preserving the cumulative
	// buffered-experiment semantics of a reused tracker.
	shardTrackers []*pager.Tracker
}

// NewExecContext returns an ExecContext with a fresh tracker.
func NewExecContext(alg Algorithm) *ExecContext {
	return &ExecContext{Tracker: pager.NewTracker(), Algorithm: alg}
}

// ShardTracker returns the context's page tracker for shard i of an n-shard
// execution, allocating it on first use. n <= 1 is the unsharded case and
// returns the plain Tracker, so single-shard executions are bit-identical to
// the historical path.
func (ec *ExecContext) ShardTracker(i, n int) *pager.Tracker {
	if n <= 1 {
		if ec.Tracker == nil {
			ec.Tracker = pager.NewTracker()
		}
		return ec.Tracker
	}
	if len(ec.shardTrackers) < n {
		grown := make([]*pager.Tracker, n)
		copy(grown, ec.shardTrackers)
		ec.shardTrackers = grown
	}
	if ec.shardTrackers[i] == nil {
		ec.shardTrackers[i] = pager.NewTracker()
	}
	return ec.shardTrackers[i]
}

// pageCounts sums the context's cumulative page accounting over every
// tracker it owns: the plain tracker plus any per-shard trackers.
func (ec *ExecContext) pageCounts() (reads, hits, misses int, bytes int64, prefetch int) {
	if ec.Tracker != nil {
		reads += ec.Tracker.Reads()
		hits += ec.Tracker.CacheHits()
		misses += ec.Tracker.CacheMisses()
		bytes += ec.Tracker.BytesDecoded()
		prefetch += ec.Tracker.PrefetchIssued()
	}
	for _, tr := range ec.shardTrackers {
		if tr == nil {
			continue
		}
		reads += tr.Reads()
		hits += tr.CacheHits()
		misses += tr.CacheMisses()
		bytes += tr.BytesDecoded()
		prefetch += tr.PrefetchIssued()
	}
	return reads, hits, misses, bytes, prefetch
}

// view is the read surface a query executes against: the live tree (a
// one-shot snapshot per scan) or a pinned btree.Snap (one consistent epoch
// for the whole query). Both implementations never block writers.
// The executor scans keys-only: a U-index entry's whole payload is the
// composite key itself (values are empty), so materializing values would be
// pure waste.
type view interface {
	MultiScanKeys(ctx context.Context, ivs []btree.Interval, tr *pager.Tracker, fn btree.ScanFunc) error
	ScanKeys(ctx context.Context, lo, hi []byte, tr *pager.Tracker, fn btree.ScanFunc) error
}

// Execute runs a query and materializes the matches. tr may be nil, in
// which case a fresh tracker is used; pass an explicit tracker to share
// page accounting across several queries.
func (ix *Index) Execute(q Query, alg Algorithm, tr *pager.Tracker) ([]Match, Stats, error) {
	var out []Match
	stats, err := ix.ExecuteFunc(q, alg, tr, func(m Match) bool {
		out = append(out, m)
		return true
	})
	return out, stats, err
}

// ExecuteFunc runs a query, streaming matches to fn; fn returning false
// stops the scan early. It wraps the query in a private ExecContext (or
// one around the caller's tracker) and delegates to ExecuteCtx.
func (ix *Index) ExecuteFunc(q Query, alg Algorithm, tr *pager.Tracker, fn func(Match) bool) (Stats, error) {
	return ix.ExecuteCtx(context.Background(), q, &ExecContext{Tracker: tr, Algorithm: alg}, fn)
}

// ExecuteCtx runs a query under an explicit execution context, streaming
// matches to fn (fn returning false stops the scan early). The whole query
// runs against one pinned tree version, so a concurrent writer is neither
// observed nor blocked. ctx cancellation is checked at every page visit.
// The returned Stats are this query's own counters; ec.Stats additionally
// accumulates them (with PagesRead always the context tracker's cumulative
// distinct count). ExecuteCtx is safe to call concurrently on the same
// Index as long as each goroutine uses its own ExecContext.
func (ix *Index) ExecuteCtx(ctx context.Context, q Query, ec *ExecContext, fn func(Match) bool) (Stats, error) {
	s := ix.tree.Snapshot()
	defer s.Release()
	return ix.executeView(ctx, s, q, ec, fn)
}

// executeView runs a query against an explicit read view.
func (ix *Index) executeView(ctx context.Context, v view, q Query, ec *ExecContext, fn func(Match) bool) (Stats, error) {
	p, err := ix.compile(q)
	if err != nil {
		return Stats{}, err
	}
	return ix.runPlan(ctx, v, p, ec, func(_ []byte, m Match) bool { return fn(m) })
}

// runPlan executes a compiled plan against one read view, streaming each
// match together with its raw entry key — the sharded executor merges
// per-shard streams in key order, and within one shard the scan emits keys
// ascending. The plan may have been compiled by another shard of the same
// index group; shards share spec, coding, and store, so plans are
// interchangeable.
func (ix *Index) runPlan(ctx context.Context, v view, p *plan, ec *ExecContext, fn func(key []byte, m Match) bool) (Stats, error) {
	if ec.Tracker == nil {
		ec.Tracker = pager.NewTracker()
	}
	tr := ec.Tracker
	var err error
	stats := Stats{Algorithm: ec.Algorithm, Intervals: len(p.intervals)}
	var lastDistinct []byte // forward-scan duplicate suppression for Distinct
	var sc matchScratch     // per-entry parse state, reused across the scan
	emit := func(key []byte) (skipTo []byte, stop bool, err error) {
		stats.EntriesScanned++
		m, skip, err := p.matchKey(ix, key, &sc)
		if err != nil {
			return nil, true, err
		}
		if m == nil {
			return skip, false, nil
		}
		if p.q.Distinct > 0 && skip != nil {
			// The skip key doubles as the cluster signature. The
			// parallel algorithm jumps past the cluster so this
			// never repeats; the forward scan visits every entry
			// and must suppress the repeats itself.
			if lastDistinct != nil && bytes.Equal(skip, lastDistinct) {
				return skip, false, nil
			}
			lastDistinct = append(lastDistinct[:0], skip...)
		}
		stats.Matches++
		if !fn(key, *m) {
			return nil, true, nil
		}
		return skip, false, nil
	}
	switch ec.Algorithm {
	case Parallel:
		err = v.MultiScanKeys(ctx, p.intervals, tr, func(k, _ []byte) ([]byte, bool, error) {
			return emit(k)
		})
	case Forward:
		// Per search value: one descent to the value's first entry,
		// then a sweep of the entire value cluster — every class's
		// entries are inspected and filtered, with no seeking past
		// irrelevant classes. This is the Section-3.3 baseline the
		// parallel algorithm is measured against in Table 1.
		norm := btree.NormalizeIntervals(p.valueIntervals)
		stopped := false
		for _, iv := range norm {
			if stopped {
				break
			}
			err = v.ScanKeys(ctx, iv.Lo, iv.Hi, tr, func(k, _ []byte) ([]byte, bool, error) {
				_, stop, err := emit(k)
				stopped = stop
				return nil, stop, err
			})
			if err != nil {
				break
			}
		}
	default:
		return Stats{}, fmt.Errorf("core: unknown algorithm %d", int(ec.Algorithm))
	}
	stats.PagesRead = tr.Reads()
	stats.NodeCacheHits = tr.CacheHits()
	stats.NodeCacheMisses = tr.CacheMisses()
	stats.BytesDecoded = tr.BytesDecoded()
	stats.PrefetchIssued = tr.PrefetchIssued()
	ec.Stats.Algorithm = ec.Algorithm
	ec.Stats.Intervals += stats.Intervals
	ec.Stats.EntriesScanned += stats.EntriesScanned
	ec.Stats.Matches += stats.Matches
	ec.Stats.PagesRead = tr.Reads()
	ec.Stats.NodeCacheHits = tr.CacheHits()
	ec.Stats.NodeCacheMisses = tr.CacheMisses()
	ec.Stats.BytesDecoded = tr.BytesDecoded()
	ec.Stats.PrefetchIssued = tr.PrefetchIssued()
	return stats, err
}
