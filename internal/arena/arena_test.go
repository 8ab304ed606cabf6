package arena

import "testing"

func TestAllocIsCappedAndIndependent(t *testing.T) {
	var a Arena[int]
	x := a.Copy([]int{1, 2})
	y := a.Copy([]int{3, 4})
	if len(x) != 2 || cap(x) != 2 {
		t.Fatalf("len/cap = %d/%d, want 2/2", len(x), cap(x))
	}
	x = append(x, 99) // must reallocate, not overwrite y
	if y[0] != 3 || y[1] != 4 {
		t.Fatalf("append to one slice changed the next: %v", y)
	}
	if x[2] != 99 {
		t.Fatalf("append lost: %v", x)
	}
}

func TestChunksGrowAndBound(t *testing.T) {
	var a Arena[byte]
	a.Alloc(1)
	if got := cap(a.buf); got != minChunkBytes {
		t.Fatalf("first chunk %d bytes, want %d", got, minChunkBytes)
	}
	for i := 0; i < 1000; i++ {
		a.Alloc(500)
	}
	if got := cap(a.buf); got != maxChunkBytes {
		t.Fatalf("chunk grew to %d bytes, want the %d cap", got, maxChunkBytes)
	}
	big := a.Alloc(maxChunkBytes + 1) // larger than any chunk: its own
	if len(big) != maxChunkBytes+1 {
		t.Fatalf("oversized alloc has len %d", len(big))
	}
	if n := len(a.Alloc(0)); n != 0 {
		t.Fatalf("Alloc(0) has len %d", n)
	}
}

func TestAllocsAmortize(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() {
		var a Arena[[3]uint64] // 24-byte elements, like a path entry
		for i := 0; i < 1000; i++ {
			a.Alloc(2)
		}
	})
	// 2,000 elements of 24 bytes: chunks of 21, 42, ..., 1365 elements.
	if allocs > 10 {
		t.Fatalf("1,000 carves cost %.0f allocations, want at most 10", allocs)
	}
}
