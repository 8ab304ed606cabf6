// Package bufferpool provides a fixed-capacity page cache between the index
// structures and their page files: a Pool wraps any pager.File and itself
// implements pager.File, so every tree in this repository gains pinned,
// evicting, write-back caching with no change to its algorithms.
//
// The pool holds up to Config.Pages frames. A page enters a frame on first
// read (or on Alloc, which caches the fresh zeroed page); a full-page Write
// of an uncached page writes through to the backing file without allocating
// a frame. Dirty frames are written back to the backing file exactly once
// per eviction, and FlushAll offers a durability point: it writes back every
// dirty frame and, when the backing file supports it (pager.DiskFile does),
// fsyncs it.
//
// Pages can be pinned (Pin/Unpin): a pinned page is never evicted, so the
// caller may hold the returned frame buffer across other pool operations.
// The pin count is a reference count — nested pins require matching unpins.
//
// Accounting: the pool is invisible to the paper's cost model. Per-query
// pager.Tracker counts are taken by the trees before the page request
// reaches any File, so Table 1 and Figures 5-8 report identical logical
// page-read numbers with the pool enabled or disabled. The pool's own
// PoolStats() snapshot reports the physical side — hits, misses, evictions,
// write-backs, and the reads/writes actually issued to the backing file —
// which the experiments harness shows next to the logical column.
package bufferpool

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/pager"
)

// DefaultPages is the frame count used when Config.Pages is not positive.
const DefaultPages = 64

var (
	// ErrNoFrames is returned when a page must be brought in but every
	// frame is pinned.
	ErrNoFrames = errors.New("bufferpool: all frames pinned")
	// ErrClosed is returned by operations on a closed pool.
	ErrClosed = errors.New("bufferpool: pool is closed")
	// ErrNotPinned is returned by Unpin of a page with no outstanding pin.
	ErrNotPinned = errors.New("bufferpool: page is not pinned")
)

// Config sizes the pool and selects its replacement policy.
type Config struct {
	// Pages is the frame capacity; <= 0 selects DefaultPages.
	Pages int
	// Policy is PolicyClock (the default, also chosen by "") or PolicyLRU.
	Policy string
}

// Stats is a snapshot of the pool's cache counters. Hits+Misses equals the
// page requests served from frames (reads and pins; write-throughs of
// uncached pages count as neither). PhysicalReads/PhysicalWrites count the
// I/O actually issued to the backing file through the pool.
type Stats struct {
	Hits           int64 // page requests served from a resident frame
	Misses         int64 // page requests that had to load the page
	Evictions      int64 // frames reclaimed from a resident page
	Writebacks     int64 // dirty frames written back on eviction
	Flushes        int64 // dirty frames written back by FlushAll/Close
	PhysicalReads  int64 // page reads issued to the backing file
	PhysicalWrites int64 // page writes issued to the backing file

	// Batched-read and prefetch accounting (see PinBatch/Prefetch).
	BatchReads     int64 // ReadBatch calls issued to the backing file
	PrefetchPages  int64 // pages loaded into frames by Prefetch
	PrefetchHits   int64 // prefetched frames later served to a page request
	PrefetchWasted int64 // prefetched frames dropped before any request hit them
}

// HitRate returns Hits / (Hits + Misses), or 0 when nothing was requested.
func (s Stats) HitRate() float64 {
	if n := s.Hits + s.Misses; n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// Add accumulates other into s (for aggregating several pools' snapshots).
func (s *Stats) Add(other Stats) {
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Evictions += other.Evictions
	s.Writebacks += other.Writebacks
	s.Flushes += other.Flushes
	s.PhysicalReads += other.PhysicalReads
	s.PhysicalWrites += other.PhysicalWrites
	s.BatchReads += other.BatchReads
	s.PrefetchPages += other.PrefetchPages
	s.PrefetchHits += other.PrefetchHits
	s.PrefetchWasted += other.PrefetchWasted
}

// Sub removes other from s (for computing the delta between two snapshots
// of the same pool set).
func (s *Stats) Sub(other Stats) {
	s.Hits -= other.Hits
	s.Misses -= other.Misses
	s.Evictions -= other.Evictions
	s.Writebacks -= other.Writebacks
	s.Flushes -= other.Flushes
	s.PhysicalReads -= other.PhysicalReads
	s.PhysicalWrites -= other.PhysicalWrites
	s.BatchReads -= other.BatchReads
	s.PrefetchPages -= other.PrefetchPages
	s.PrefetchHits -= other.PrefetchHits
	s.PrefetchWasted -= other.PrefetchWasted
}

// counters is the pool's live cache accounting. Every field is atomic so
// PoolStats can snapshot without taking the pool mutex: a Stats reader never
// blocks (or races with) an eviction in progress.
type counters struct {
	hits           atomic.Int64
	misses         atomic.Int64
	evictions      atomic.Int64
	writebacks     atomic.Int64
	flushes        atomic.Int64
	physicalReads  atomic.Int64
	physicalWrites atomic.Int64
	batchReads     atomic.Int64
	prefetchPages  atomic.Int64
	prefetchHits   atomic.Int64
	prefetchWasted atomic.Int64
}

// snapshot materializes the counters into the exported Stats form.
func (c *counters) snapshot() Stats {
	return Stats{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Evictions:      c.evictions.Load(),
		Writebacks:     c.writebacks.Load(),
		Flushes:        c.flushes.Load(),
		PhysicalReads:  c.physicalReads.Load(),
		PhysicalWrites: c.physicalWrites.Load(),
		BatchReads:     c.batchReads.Load(),
		PrefetchPages:  c.prefetchPages.Load(),
		PrefetchHits:   c.prefetchHits.Load(),
		PrefetchWasted: c.prefetchWasted.Load(),
	}
}

// frame is one cache slot. The latch serializes access to buf while the
// frame is pinned: Read/Write copy page bytes under the latch with the pool
// mutex released, so long memcpys of different frames proceed in parallel.
// Latch holders always hold a pin (so the frame cannot be evicted or
// reassigned under them) and never hold the pool mutex at the same time.
type frame struct {
	id    pager.PageID
	buf   []byte
	pins  int
	dirty bool
	// prefetched marks a frame loaded speculatively by Prefetch and not yet
	// hit by any page request; it drives the PrefetchHits/PrefetchWasted
	// accounting and has no effect on replacement.
	prefetched bool
	latch      sync.RWMutex
}

// Pool is a buffer-pool manager over a pager.File. It implements pager.File
// itself, so it can stand in for the backing file anywhere. All methods are
// safe for concurrent use.
type Pool struct {
	mu     sync.Mutex
	inner  pager.File
	size   int // page size, cached
	frames []frame
	table  map[pager.PageID]int // resident page -> frame index
	free   []int                // unused frame indices
	rep    replacer
	stats  counters
	calls  pager.Stats // caller-visible op counts (File.Stats)
	closed bool

	// Batched-admission window tracking (see admitChunk): inflight counts
	// batched reads currently running with the mutex released, and stale
	// collects the pages whose backing bytes changed while any such read was
	// in flight, so a batch never installs bytes it read before the change.
	inflight int
	stale    map[pager.PageID]struct{}

	// transient counts pins Read and Write hold only across their copy
	// window. Together with inflight batches, whose private frames also
	// come back on their own, it tells a Read that finds no frame whether
	// to wait for one (frameBack) or fail with ErrNoFrames.
	transient int
	frameBack *sync.Cond // on mu; broadcast when a transient hold ends
}

// noteStoreLocked records that the backing contents of page id changed — a
// write-through, a write-back, a flush, a free, or a re-allocation. While a
// batched admission has the mutex released (p.inflight > 0), these pages are
// collected so the batch discards its now-stale read instead of installing
// it; with no batch in flight this is a no-op.
func (p *Pool) noteStoreLocked(id pager.PageID) {
	if p.inflight == 0 {
		return
	}
	if p.stale == nil {
		p.stale = make(map[pager.PageID]struct{})
	}
	p.stale[id] = struct{}{}
}

// syncer is implemented by backing files that can force written pages to
// stable storage (pager.DiskFile).
type syncer interface{ Sync() error }

// New returns a pool over inner. The inner file must not be accessed
// directly while the pool is in use: the pool owns the caching of its pages.
func New(inner pager.File, cfg Config) (*Pool, error) {
	n := cfg.Pages
	if n <= 0 {
		n = DefaultPages
	}
	rep, err := newReplacer(cfg.Policy, n)
	if err != nil {
		return nil, err
	}
	p := &Pool{
		inner:  inner,
		size:   inner.PageSize(),
		frames: make([]frame, n),
		table:  make(map[pager.PageID]int, n),
		free:   make([]int, 0, n),
		rep:    rep,
	}
	p.frameBack = sync.NewCond(&p.mu)
	// The free list is popped from the back; seed it in reverse so frames
	// fill in ascending order (the order the clock hand sweeps).
	for i := range p.frames {
		p.frames[i].buf = make([]byte, p.size)
		p.free = append(p.free, n-1-i)
	}
	return p, nil
}

// Inner returns the backing file (read-only use: its own Stats).
func (p *Pool) Inner() pager.File { return p.inner }

// Capacity returns the pool's frame count.
func (p *Pool) Capacity() int { return len(p.frames) }

// PageSize implements pager.File.
func (p *Pool) PageSize() int { return p.size }

// reclaimLocked returns a usable frame index: a free frame if any, else an
// eviction victim with its page written back (if dirty) and unmapped.
func (p *Pool) reclaimLocked() (int, error) {
	if n := len(p.free); n > 0 {
		fi := p.free[n-1]
		p.free = p.free[:n-1]
		return fi, nil
	}
	fi, ok := p.rep.victim()
	if !ok {
		return 0, ErrNoFrames
	}
	f := &p.frames[fi]
	if f.dirty {
		if err := p.inner.Write(f.id, f.buf); err != nil {
			p.rep.setEvictable(fi, true) // give the frame back
			return 0, fmt.Errorf("bufferpool: writing back page %d: %w", f.id, err)
		}
		p.stats.physicalWrites.Add(1)
		p.stats.writebacks.Add(1)
		p.noteStoreLocked(f.id)
		f.dirty = false
	}
	p.stats.evictions.Add(1)
	if f.prefetched {
		f.prefetched = false
		p.stats.prefetchWasted.Add(1)
	}
	delete(p.table, f.id)
	return fi, nil
}

// pinLocked brings page id into a frame (loading it from the backing file on
// a miss) and takes one pin on it.
func (p *Pool) pinLocked(id pager.PageID) (int, error) {
	if fi, ok := p.table[id]; ok {
		p.stats.hits.Add(1)
		f := &p.frames[fi]
		if f.prefetched {
			f.prefetched = false
			p.stats.prefetchHits.Add(1)
		}
		f.pins++
		p.rep.noteAccess(fi)
		p.rep.setEvictable(fi, false)
		return fi, nil
	}
	p.stats.misses.Add(1)
	fi, err := p.reclaimLocked()
	if err != nil {
		return 0, err
	}
	f := &p.frames[fi]
	if err := p.inner.Read(id, f.buf); err != nil {
		p.free = append(p.free, fi)
		return 0, err
	}
	p.stats.physicalReads.Add(1)
	f.id = id
	f.pins = 1
	f.dirty = false
	f.prefetched = false
	p.table[id] = fi
	p.rep.noteAccess(fi)
	p.rep.setEvictable(fi, false)
	return fi, nil
}

func (p *Pool) unpinLocked(fi int, dirty bool) {
	f := &p.frames[fi]
	f.pins--
	if dirty {
		f.dirty = true
	}
	if f.pins == 0 {
		p.rep.setEvictable(fi, true)
	}
}

// Pin brings the page into the pool, pins it, and returns its frame buffer.
// The buffer stays valid (and the page resident) until the matching Unpin.
// Concurrent users of the same page must coordinate their own access to the
// buffer; the pool only guarantees the frame will not be evicted or reused.
func (p *Pool) Pin(id pager.PageID) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrClosed
	}
	fi, err := p.pinLocked(id)
	if err != nil {
		return nil, err
	}
	return p.frames[fi].buf, nil
}

// Unpin releases one pin on the page; dirty marks the frame as modified so
// it is written back before its frame is reused.
func (p *Pool) Unpin(id pager.PageID, dirty bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	fi, ok := p.table[id]
	if !ok || p.frames[fi].pins == 0 {
		return fmt.Errorf("%w: %d", ErrNotPinned, id)
	}
	p.unpinLocked(fi, dirty)
	return nil
}

// Read implements pager.File: it serves the page from its frame, loading it
// from the backing file first on a miss. The copy out of the frame happens
// under the frame's latch with the pool mutex released, so concurrent
// readers of different pages overlap their copies.
func (p *Pool) Read(id pager.PageID, buf []byte) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	if len(buf) != p.size {
		p.mu.Unlock()
		return pager.ErrPageSize
	}
	p.calls.Reads++
	// A miss with every frame pinned or private fails only when the holds
	// are Pin callers'. Holds by other reads and writes mid-copy, or by
	// batched reads in flight, end on their own, so the read waits for a
	// frame instead of failing because it lost a race.
	for p.noFrameLocked(id) && (p.transient > 0 || p.inflight > 0) {
		p.frameBack.Wait()
		if p.closed {
			p.mu.Unlock()
			return ErrClosed
		}
	}
	fi, err := p.pinLocked(id)
	if err != nil {
		p.mu.Unlock()
		return err
	}
	f := &p.frames[fi]
	p.transient++
	p.mu.Unlock()

	f.latch.RLock()
	copy(buf, f.buf)
	f.latch.RUnlock()

	p.mu.Lock()
	p.endTransientLocked(fi, false)
	p.mu.Unlock()
	return nil
}

// noFrameLocked reports whether bringing page id in would find no frame:
// the page is not resident and no frame is free or evictable.
func (p *Pool) noFrameLocked(id pager.PageID) bool {
	_, resident := p.table[id]
	return !resident && len(p.free) == 0 && p.rep.numEvictable() == 0
}

// endTransientLocked releases a Read or Write copy-window pin and wakes
// reads waiting for a frame.
func (p *Pool) endTransientLocked(fi int, dirty bool) {
	p.unpinLocked(fi, dirty)
	p.transient--
	p.frameBack.Broadcast()
}

// Write implements pager.File. A resident page is updated in its frame and
// marked dirty (write-back); an uncached page is written through to the
// backing file, which also keeps the backing file's bounds/free validation
// on the write path.
func (p *Pool) Write(id pager.PageID, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if len(buf) != p.size {
		return pager.ErrPageSize
	}
	p.calls.Writes++
	if fi, ok := p.table[id]; ok {
		p.stats.hits.Add(1)
		f := &p.frames[fi]
		if f.prefetched {
			f.prefetched = false
			p.stats.prefetchHits.Add(1)
		}
		// Pin the frame so it survives the mutex gap, then copy under
		// the exclusive frame latch; the unpin marks it dirty.
		f.pins++
		p.rep.noteAccess(fi)
		p.rep.setEvictable(fi, false)
		p.transient++
		p.mu.Unlock()

		f.latch.Lock()
		copy(f.buf, buf)
		f.latch.Unlock()

		p.mu.Lock()
		p.endTransientLocked(fi, true)
		return nil
	}
	if err := p.inner.Write(id, buf); err != nil {
		return err
	}
	p.stats.physicalWrites.Add(1)
	p.noteStoreLocked(id)
	return nil
}

// Alloc implements pager.File. The fresh zeroed page is cached (clean) when
// a frame can be reclaimed without error, so the allocate-then-write pattern
// of the trees does not pay a physical read.
func (p *Pool) Alloc() (pager.PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return pager.NilPage, ErrClosed
	}
	p.calls.Allocs++
	id, err := p.inner.Alloc()
	if err != nil {
		return pager.NilPage, err
	}
	p.noteStoreLocked(id)
	if fi, err := p.reclaimLocked(); err == nil {
		f := &p.frames[fi]
		clear(f.buf)
		f.id = id
		f.pins = 0
		f.dirty = false
		f.prefetched = false
		p.table[id] = fi
		p.rep.noteAccess(fi)
		p.rep.setEvictable(fi, true)
	}
	return id, nil
}

// Free implements pager.File: the page's frame (if resident) is discarded —
// its dirty contents are dropped, not written back — and the page is freed
// in the backing file. Freeing a pinned page is an error.
func (p *Pool) Free(id pager.PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	p.calls.Frees++
	if fi, ok := p.table[id]; ok {
		f := &p.frames[fi]
		if f.pins > 0 {
			return fmt.Errorf("bufferpool: freeing pinned page %d", id)
		}
		delete(p.table, id)
		p.rep.remove(fi)
		f.dirty = false
		if f.prefetched {
			f.prefetched = false
			p.stats.prefetchWasted.Add(1)
		}
		p.free = append(p.free, fi)
	}
	p.noteStoreLocked(id)
	return p.inner.Free(id)
}

// NumPages implements pager.File.
func (p *Pool) NumPages() int { return p.inner.NumPages() }

// Stats implements pager.File: it reports the operations callers issued on
// the pool (the logical view). The cache counters are in PoolStats, and the
// physical I/O the backing file saw is in Inner().Stats().
func (p *Pool) Stats() pager.Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls
}

// PoolStats returns a snapshot of the cache counters. The counters are
// atomic, so the snapshot never takes the pool mutex and is safe to call
// concurrently with evictions and page traffic; each counter is internally
// consistent, while cross-counter sums may be mid-update by one operation.
func (p *Pool) PoolStats() Stats {
	return p.stats.snapshot()
}

// flushLocked writes back every dirty frame and syncs the backing file when
// it supports Sync.
func (p *Pool) flushLocked() error {
	for fi := range p.frames {
		f := &p.frames[fi]
		if !f.dirty {
			continue
		}
		// A dirty frame may be pinned with a writer mid-copy under its
		// latch; the read latch makes the flushed image a consistent one.
		f.latch.RLock()
		err := p.inner.Write(f.id, f.buf)
		f.latch.RUnlock()
		if err != nil {
			return fmt.Errorf("bufferpool: flushing page %d: %w", f.id, err)
		}
		p.stats.physicalWrites.Add(1)
		p.stats.flushes.Add(1)
		p.noteStoreLocked(f.id)
		f.dirty = false
	}
	if s, ok := p.inner.(syncer); ok {
		return s.Sync()
	}
	return nil
}

// FlushAll writes every dirty frame back to the backing file and, when the
// backing file supports it, fsyncs it — a durability point. Pages stay
// resident; pins are unaffected.
func (p *Pool) FlushAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	return p.flushLocked()
}

// Close flushes every dirty frame, closes the backing file, and marks the
// pool unusable. Outstanding pins are reported as an error (after the flush
// and close have still been attempted), since they indicate a leak.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	p.closed = true
	err := p.flushLocked()
	if cerr := p.inner.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		pinned := 0
		for i := range p.frames {
			if p.frames[i].pins > 0 {
				pinned++
			}
		}
		if pinned > 0 {
			err = fmt.Errorf("bufferpool: closed with %d page(s) still pinned", pinned)
		}
	}
	return err
}
