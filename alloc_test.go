package uindex

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestRangeScanAllocsScaleWithMatches is the allocation regression guard
// for the query result path: a value-range query inspects every entry in
// the spanned clusters and matches thousands of them. The per-entry parse
// used to allocate a path slice, per-component code strings, and offset
// slices for each entry (~27k allocations per query on the benchmark
// database), and later each match still allocated its own Path copy and
// boxed value. Now the parse reuses its scratch, the value is decoded once
// per attribute-value cluster, and Paths are carved from a chunked arena,
// so a query's allocations are a flat per-query cost plus logarithmic slice
// growth: they must not scale with entries scanned or with matches.
func TestRangeScanAllocsScaleWithMatches(t *testing.T) {
	s := NewSchema()
	if err := s.AddClass("Vehicle", "", Attr{Name: "Color", Type: String}); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"Automobile", "Truck"} {
		if err := s.AddClass(sub, "Vehicle"); err != nil {
			t.Fatal(err)
		}
	}
	db, err := NewDatabaseWith(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(42))
	colors := []string{"Red", "Blue", "White", "Green", "Black", "Silver"}
	classes := []string{"Vehicle", "Automobile", "Truck"}
	if err := db.CreateIndex(IndexSpec{Name: "color", Root: "Vehicle", Attr: "Color"}); err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := db.Insert(classes[rng.Intn(len(classes))], Attrs{
			"Color": colors[rng.Intn(len(colors))]}); err != nil {
			t.Fatal(err)
		}
	}

	// Black..Red spans four of the six color clusters; every entry in the
	// span is inspected and matches (positions are unrestricted), so the
	// query both scans and matches thousands of entries.
	q := Query{Value: Range("Black", "Red"), Positions: []Position{On("Vehicle")}}
	ctx := context.Background()
	matches, stats, err := db.Query(ctx, "color", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) < n/3 || stats.EntriesScanned < len(matches) {
		t.Fatalf("weak fixture: %d matches, %d entries scanned", len(matches), stats.EntriesScanned)
	}

	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := db.Query(ctx, "color", q); err != nil {
			t.Fatal(err)
		}
	})
	// The per-query setup (plan, intervals, tracker, scan state), one
	// decoded value per color cluster, about ten doubling arena chunks and
	// about ten doublings of the result slice: under 100 at any result
	// size. One allocation per match — a Path copy, a boxed value — would
	// add well over a thousand.
	const limit = 150
	if allocs > limit {
		t.Fatalf("range query allocates %.0f per run for %d matches (%d entries scanned); limit %d — "+
			"the result path is allocating per entry or per match again", allocs, len(matches), stats.EntriesScanned, limit)
	}
	t.Logf("range query: %.0f allocs, %d matches, %d entries scanned", allocs, len(matches), stats.EntriesScanned)
}

// TestQueryPathsAreIndependent checks the result lifetime contract: each
// Match.Path is capped at its length, so appending to one (which a caller
// may do to a retained match) reallocates instead of overwriting the next
// match's path in the shared arena chunk. It also checks that matches of one
// attribute-value cluster share their Value without the sharing being
// visible: every match still carries the right value.
func TestQueryPathsAreIndependent(t *testing.T) {
	db, _ := paperDB(t)
	defer db.Close()
	ctx := context.Background()
	q := Query{Value: Range(uint64(0), uint64(100))}
	ms, _, err := db.Query(ctx, "age", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) < 3 {
		t.Fatalf("weak fixture: %d matches", len(ms))
	}
	want := make([][]PathEntry, len(ms))
	for i, m := range ms {
		if cap(m.Path) != len(m.Path) {
			t.Fatalf("match %d: Path len %d cap %d, want capped", i, len(m.Path), cap(m.Path))
		}
		want[i] = append([]PathEntry(nil), m.Path...)
	}
	for i := range ms {
		ms[i].Path = append(ms[i].Path, PathEntry{Code: "9", OID: 999})
		for j := i + 1; j < len(ms); j++ {
			if !reflect.DeepEqual(ms[j].Path, want[j]) {
				t.Fatalf("append to match %d's Path changed match %d: %v, was %v", i, j, ms[j].Path, want[j])
			}
		}
	}
	// Vehicles of one company share their president's age, so values run
	// in clusters; each match's value must still be its own path's.
	for _, m := range ms {
		pres, _ := db.Get(m.Path[0].OID) // terminal-first: the president
		if age := pres.Attrs()["Age"]; fmt.Sprint(m.Value) != fmt.Sprint(age) {
			t.Fatalf("match %v carries value %v, its president's age is %v", m.Path, m.Value, age)
		}
	}
}
