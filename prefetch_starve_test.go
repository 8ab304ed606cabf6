package uindex

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestPrefetchNeverStarvesForegroundReads is the regression test for
// prefetch holding every frame of a small pool: an in-flight Prefetch batch
// reclaims up to a chunk of private frames, and a concurrent synchronous
// read that found none free or evictable used to fail with "all frames
// pinned". A 16-frame pool with prefetch on serves one goroutine's
// sequential range queries while two more run Parscans; no query may fail.
func TestPrefetchNeverStarvesForegroundReads(t *testing.T) {
	s := NewSchema()
	if err := s.AddClass("Vehicle", "", Attr{Name: "Color", Type: String}); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"Automobile", "Truck", "Bus"} {
		if err := s.AddClass(sub, "Vehicle"); err != nil {
			t.Fatal(err)
		}
	}
	db, err := NewDatabaseWith(s, Options{Dir: t.TempDir(), PoolPages: 16, NodeCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateIndex(IndexSpec{Name: "color", Root: "Vehicle", Attr: "Color"}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	classes := []string{"Vehicle", "Automobile", "Truck", "Bus"}
	var b Batch
	for i := 0; i < 8000; i++ {
		b.Insert(classes[rng.Intn(len(classes))], Attrs{"Color": fmt.Sprintf("C%02d", rng.Intn(40))})
	}
	ctx := context.Background()
	if _, err := db.Apply(ctx, &b); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	scan := Query{Value: Range("C05", "C30"), Positions: []Position{On("Vehicle")}}
	parscans := []Query{
		{Value: OneOf("C01", "C09", "C17", "C25", "C33"), Positions: []Position{OneOfClasses("Truck", "Bus")}},
		{Value: OneOf("C03", "C12", "C21", "C30", "C39"), Positions: []Position{OneOfClasses("Automobile", "Bus")}},
	}
	want := make([]int, len(parscans))
	for i, q := range parscans {
		ms, st, err := db.Query(ctx, "color", q)
		if err != nil {
			t.Fatal(err)
		}
		if st.PrefetchIssued == 0 {
			t.Fatalf("weak fixture: parscan %d issued no prefetch", i)
		}
		want[i] = len(ms)
	}
	ms, _, err := db.Query(ctx, "color", scan)
	if err != nil {
		t.Fatal(err)
	}
	wantScan := len(ms)

	const rounds = 60
	errs := make(chan error, rounds*3)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			ms, _, err := db.Query(ctx, "color", scan)
			if err == nil && len(ms) != wantScan {
				err = fmt.Errorf("range query: %d matches, want %d", len(ms), wantScan)
			}
			if err != nil {
				errs <- err
			}
		}
	}()
	for i, q := range parscans {
		wg.Add(1)
		go func(i int, q Query) {
			defer wg.Done()
			for r := 0; r < 3*rounds; r++ {
				ms, _, err := db.Query(ctx, "color", q)
				if err == nil && len(ms) != want[i] {
					err = fmt.Errorf("parscan %d: %d matches, want %d", i, len(ms), want[i])
				}
				if err != nil {
					errs <- err
				}
			}
		}(i, q)
	}
	wg.Wait()
	close(errs)
	n := 0
	for err := range errs {
		if n++; n == 1 {
			t.Errorf("first failure: %v", err)
		}
	}
	if n > 0 {
		t.Fatalf("%d queries failed under prefetch on a 16-frame pool", n)
	}
}
