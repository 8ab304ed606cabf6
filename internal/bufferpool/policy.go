package bufferpool

import "fmt"

// Replacement policy names accepted by Config.Policy.
const (
	PolicyClock = "clock"
	PolicyLRU   = "lru"
)

// replacer picks eviction victims among the pool's frames. Implementations
// are not safe for concurrent use; the pool serializes access under its own
// mutex. Frames are identified by their index in the pool's frame table.
type replacer interface {
	// noteAccess records a reference to frame i (on every hit and load).
	noteAccess(i int)
	// setEvictable marks frame i as an eviction candidate (pin count
	// reached zero) or withdraws it (page pinned again).
	setEvictable(i int, ok bool)
	// victim selects an evictable frame, withdraws it from consideration,
	// and returns it. ok is false when no frame is evictable.
	victim() (int, bool)
	// remove withdraws frame i entirely (its page was freed).
	remove(i int)
	// numEvictable returns the number of evictable frames.
	numEvictable() int
}

func newReplacer(policy string, frames int) (replacer, error) {
	switch policy {
	case "", PolicyClock:
		return newClockReplacer(frames), nil
	case PolicyLRU:
		return newLRUReplacer(frames), nil
	default:
		return nil, fmt.Errorf("bufferpool: unknown replacement policy %q (want %q or %q)",
			policy, PolicyClock, PolicyLRU)
	}
}

// clockReplacer is the default second-chance policy: a hand sweeps the frame
// table; a referenced frame gets its bit cleared and is passed over once, an
// unreferenced evictable frame is the victim.
type clockReplacer struct {
	ref       []bool
	evictable []bool
	hand      int
	n         int // evictable frames
}

func newClockReplacer(frames int) *clockReplacer {
	return &clockReplacer{ref: make([]bool, frames), evictable: make([]bool, frames)}
}

func (c *clockReplacer) noteAccess(i int) { c.ref[i] = true }

func (c *clockReplacer) setEvictable(i int, ok bool) {
	if c.evictable[i] == ok {
		return
	}
	c.evictable[i] = ok
	if ok {
		c.n++
	} else {
		c.n--
	}
}

func (c *clockReplacer) victim() (int, bool) {
	if c.n == 0 {
		return 0, false
	}
	// Two sweeps suffice: the first clears every reference bit on the
	// evictable frames, the second must find one unreferenced.
	for step := 0; step < 2*len(c.ref)+1; step++ {
		i := c.hand
		c.hand = (c.hand + 1) % len(c.ref)
		if !c.evictable[i] {
			continue
		}
		if c.ref[i] {
			c.ref[i] = false
			continue
		}
		c.setEvictable(i, false)
		return i, true
	}
	return 0, false
}

func (c *clockReplacer) numEvictable() int { return c.n }

func (c *clockReplacer) remove(i int) {
	c.setEvictable(i, false)
	c.ref[i] = false
}

// lruReplacer evicts the least-recently-accessed evictable frame, tracked
// with a monotonic access stamp per frame.
type lruReplacer struct {
	stamp     []uint64
	evictable []bool
	clock     uint64
	n         int
}

func newLRUReplacer(frames int) *lruReplacer {
	return &lruReplacer{stamp: make([]uint64, frames), evictable: make([]bool, frames)}
}

func (l *lruReplacer) noteAccess(i int) {
	l.clock++
	l.stamp[i] = l.clock
}

func (l *lruReplacer) setEvictable(i int, ok bool) {
	if l.evictable[i] == ok {
		return
	}
	l.evictable[i] = ok
	if ok {
		l.n++
	} else {
		l.n--
	}
}

func (l *lruReplacer) numEvictable() int { return l.n }

func (l *lruReplacer) victim() (int, bool) {
	if l.n == 0 {
		return 0, false
	}
	best, found := 0, false
	for i, ok := range l.evictable {
		if !ok {
			continue
		}
		if !found || l.stamp[i] < l.stamp[best] {
			best, found = i, true
		}
	}
	if !found {
		return 0, false
	}
	l.setEvictable(best, false)
	return best, true
}

func (l *lruReplacer) remove(i int) {
	l.setEvictable(i, false)
	l.stamp[i] = 0
}
