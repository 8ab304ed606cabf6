package bufferpool

import "repro/internal/pager"

// batchChunk bounds how many pages one batched admission brings in at once.
// The chunk is the pipelining grain of the prefetch path: frames for one
// chunk are reclaimed under the pool mutex, the chunk's batched read runs
// with the mutex released (hits on resident pages and unpins proceed
// unblocked), and decode of chunk N overlaps the I/O of chunk N+1.
const batchChunk = 16

// PinBatch brings every page of ids into the pool with one batched backing
// read per chunk of misses and takes one pin per position (duplicate ids pin
// their shared frame once per occurrence). It returns the frame buffers
// aligned with ids and, when any sub-read failed, a per-position error slice
// (nil entries for the successes); a failed position has a nil buffer and no
// pin. Pages that race in through concurrent readers are detected as hits
// and their concurrently-loaded frame is served.
func (p *Pool) PinBatch(ids []pager.PageID) ([][]byte, []error) {
	bufs := make([][]byte, len(ids))
	var errs []error
	for start := 0; start < len(ids); start += batchChunk {
		end := min(start+batchChunk, len(ids))
		off := start
		p.admitChunk(ids[start:end], true, bufs[start:end], func(i int, err error) {
			if errs == nil {
				errs = make([]error, len(ids))
			}
			errs[off+i] = err
		})
	}
	return bufs, errs
}

// UnpinBatch releases one pin per position of a PinBatch result; positions
// with a nil buffer (failed sub-reads) are skipped. dirty marks every
// unpinned frame as modified.
func (p *Pool) UnpinBatch(ids []pager.PageID, bufs [][]byte, dirty bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	var firstErr error
	for i, id := range ids {
		if bufs[i] == nil {
			continue
		}
		fi, ok := p.table[id]
		if !ok || p.frames[fi].pins == 0 {
			if firstErr == nil {
				firstErr = ErrNotPinned
			}
			continue
		}
		p.unpinLocked(fi, dirty)
	}
	return firstErr
}

// Prefetch loads the given pages into frames without pinning them — a
// speculative hint from a scan that knows its next-level frontier. Resident
// pages are skipped, misses are read with one ReadBatch per chunk (issued
// with the pool mutex released, so prefetch I/O never stalls foreground
// readers of resident pages), and failures are swallowed (the scan's own
// synchronous read will surface them). It returns the number of pages
// actually loaded. Prefetched frames are immediately evictable and are
// tracked by the PrefetchPages / PrefetchHits / PrefetchWasted counters.
func (p *Pool) Prefetch(ids []pager.PageID) int {
	loaded := 0
	for start := 0; start < len(ids); start += batchChunk {
		end := min(start+batchChunk, len(ids))
		loaded += p.admitChunk(ids[start:end], false, nil, nil)
	}
	return loaded
}

// admitChunk admits one chunk of pages (len(ids) <= batchChunk). With
// pin=true every position is pinned and its frame buffer stored in bufs, and
// failures are reported through fail; with pin=false (prefetch) frames are
// installed unpinned and evictable, bufs and fail are unused, and the return
// value counts the pages loaded.
//
// The batched backing read runs with the pool mutex released, so batch-miss
// and prefetch I/O never blocks concurrent hits on resident pages. The
// frames receiving the read are private — reclaimed but not yet published in
// the table, hence invisible to every other pool user — and the install pass
// reconciles them against whatever happened during the I/O window: a page
// that raced in through a concurrent reader keeps that reader's frame (ours
// is discarded unused), and a page whose backing bytes changed while the
// read was in flight (freed, re-allocated, written through, or written back
// — tracked in p.stale by noteStoreLocked) is never installed from the
// now-stale read. Pinned positions of such pages fall back to a fresh
// synchronous read; prefetch positions are simply dropped.
func (p *Pool) admitChunk(ids []pager.PageID, pin bool, bufs [][]byte, fail func(int, error)) int {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		if fail != nil {
			for i := range ids {
				fail(i, ErrClosed)
			}
		}
		return 0
	}

	// Pass 1: resolve resident positions as hits — pinned now, so they stay
	// resident across the I/O window — and reclaim a private frame for every
	// distinct non-resident page.
	var missIDs []pager.PageID
	var missFrames []int
	var missErrs []error
	type pos struct{ i, k int } // position i resolves against miss k
	var pending []pos
outer:
	for i, id := range ids {
		if _, ok := p.table[id]; ok {
			if pin {
				fi, _ := p.pinLocked(id) // resident: hit path, cannot fail
				bufs[i] = p.frames[fi].buf
			}
			continue
		}
		for k, m := range missIDs {
			if m == id {
				if pin {
					pending = append(pending, pos{i, k})
				}
				continue outer
			}
		}
		k := len(missIDs)
		fi, err := p.reclaimLocked()
		if err != nil {
			fi = -1
		}
		missIDs = append(missIDs, id)
		missFrames = append(missFrames, fi)
		missErrs = append(missErrs, err)
		if pin {
			pending = append(pending, pos{i, k})
		}
	}
	readIDs := make([]pager.PageID, 0, len(missIDs))
	readBufs := make([][]byte, 0, len(missIDs))
	readPos := make([]int, 0, len(missIDs))
	for k, fi := range missFrames {
		if fi < 0 {
			continue
		}
		readIDs = append(readIDs, missIDs[k])
		readBufs = append(readBufs, p.frames[fi].buf)
		readPos = append(readPos, k)
	}

	// Pass 2: one batched read straight into the private frame buffers, with
	// the mutex released. p.inflight makes noteStoreLocked record every page
	// whose backing contents change during the window.
	var rerrs []error
	if len(readIDs) > 0 {
		p.inflight++
		p.mu.Unlock()
		p.stats.batchReads.Add(1)
		rerrs = pager.ReadPages(p.inner, readIDs, readBufs)
		p.mu.Lock()
		p.inflight--
		// The private frames come back below, before the mutex is
		// released; wake the reads waiting for one.
		p.frameBack.Broadcast()
		if p.closed {
			for _, fi := range missFrames {
				if fi >= 0 {
					p.free = append(p.free, fi)
				}
			}
			if p.inflight == 0 {
				clear(p.stale)
			}
			p.mu.Unlock()
			if fail != nil {
				for _, pp := range pending {
					fail(pp.i, ErrClosed)
				}
			}
			return 0
		}
	}
	defer p.mu.Unlock()

	// Pass 3: install the loaded frames, reconciling against the window.
	loaded := 0
	for j, k := range readPos {
		fi := missFrames[k]
		id := readIDs[j]
		discard := false
		if rerrs != nil && rerrs[j] != nil {
			missErrs[k] = rerrs[j]
			discard = true
		} else if _, resident := p.table[id]; resident {
			discard = true // raced in through a concurrent reader: its frame wins
		} else if _, changed := p.stale[id]; changed {
			discard = true // backing bytes changed mid-read: our copy is stale
		}
		if discard {
			missFrames[k] = -1
			p.free = append(p.free, fi)
			continue
		}
		p.stats.physicalReads.Add(1)
		if pin {
			p.stats.misses.Add(1)
		} else {
			p.stats.prefetchPages.Add(1)
		}
		f := &p.frames[fi]
		f.id = id
		f.pins = 0
		f.dirty = false
		f.prefetched = !pin
		p.table[id] = fi
		p.rep.noteAccess(fi)
		p.rep.setEvictable(fi, true)
		loaded++
	}
	if p.inflight == 0 {
		clear(p.stale)
	}
	if !pin {
		return loaded
	}

	// Pass 4: pin the pending positions. The first position of a page we
	// installed was already counted as a miss; every other resident position
	// is a hit. A page that is neither resident nor read-failed was stale-
	// skipped (or evicted again already) — re-read it synchronously.
	missCounted := make([]bool, len(missIDs))
	for _, pp := range pending {
		id := ids[pp.i]
		fi, ok := p.table[id]
		if !ok {
			if missErrs[pp.k] != nil {
				fail(pp.i, missErrs[pp.k])
				continue
			}
			fi2, err := p.pinLocked(id)
			if err != nil {
				fail(pp.i, err)
				continue
			}
			bufs[pp.i] = p.frames[fi2].buf
			continue
		}
		f := &p.frames[fi]
		if missFrames[pp.k] == fi && !missCounted[pp.k] {
			missCounted[pp.k] = true
		} else {
			p.stats.hits.Add(1)
			if f.prefetched {
				f.prefetched = false
				p.stats.prefetchHits.Add(1)
			}
		}
		f.pins++
		p.rep.noteAccess(fi)
		p.rep.setEvictable(fi, false)
		bufs[pp.i] = f.buf
	}
	return loaded
}

// Reset flushes dirty frames and drops every unpinned frame — resident
// pages must be re-read from the backing file afterwards. Cold-cache
// benchmarks call this between iterations (paired with the disk files'
// DropOSCache); pinned frames survive untouched. Still-unused prefetched
// frames count as wasted.
func (p *Pool) Reset() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if err := p.flushLocked(); err != nil {
		return err
	}
	for id, fi := range p.table {
		f := &p.frames[fi]
		if f.pins > 0 {
			continue
		}
		if f.prefetched {
			f.prefetched = false
			p.stats.prefetchWasted.Add(1)
		}
		delete(p.table, id)
		p.rep.remove(fi)
		f.dirty = false
		p.free = append(p.free, fi)
	}
	return nil
}
