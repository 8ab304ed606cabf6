// Package arena provides the chunked slab allocator of the query result
// path. A query that emits n matches needs n small slices (one Path per
// match, one key copy per match in a shard scatter); carving them from
// shared chunks costs O(log n + n/chunk) allocations instead of n.
package arena

import "unsafe"

// Chunk sizes in bytes: the first chunk is small, so a query with a handful
// of matches does not pay for a large one, and each later chunk doubles up
// to the cap, so a large result set costs one allocation per maxChunkBytes.
const (
	minChunkBytes = 512
	maxChunkBytes = 32 << 10
)

// Arena carves slices of T out of chunks it allocates on demand. Every
// slice it returns is capped at its length, so a caller's append
// reallocates instead of writing into the next slice. Chunks are never
// reused: a returned slice stays valid for as long as the caller keeps it,
// which also keeps the rest of its chunk alive. The zero value is ready to
// use. An Arena is not safe for concurrent use.
type Arena[T any] struct {
	buf []T
}

// Alloc returns a zeroed slice of n elements, len == cap == n.
func (a *Arena[T]) Alloc(n int) []T {
	if cap(a.buf)-len(a.buf) < n {
		var zero T
		size := int(unsafe.Sizeof(zero))
		if size == 0 {
			size = 1
		}
		elems := max(2*cap(a.buf), minChunkBytes/size)
		elems = max(min(elems, maxChunkBytes/size), n)
		a.buf = make([]T, 0, elems)
	}
	start := len(a.buf)
	a.buf = a.buf[:start+n]
	return a.buf[start : start+n : start+n]
}

// Copy returns a copy of s carved from the arena.
func (a *Arena[T]) Copy(s []T) []T {
	out := a.Alloc(len(s))
	copy(out, s)
	return out
}
