package uindex

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestSnapshotReadIsolation: a snapshot taken before a write never observes
// it, while direct queries see the new state immediately.
func TestSnapshotReadIsolation(t *testing.T) {
	db, ids := paperDB(t)
	ctx := context.Background()
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()

	redBefore, _, err := snap.Query(ctx, "color", Query{Value: Exact("Red")})
	if err != nil {
		t.Fatal(err)
	}

	// Mutate after the snapshot: new red vehicle, deleted red vehicle,
	// recolored vehicle.
	if _, err := db.Insert("Truck", Attrs{"Name": "Hauler", "Color": "Red"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(ids["v4"]); err != nil {
		t.Fatal(err)
	}
	if err := db.Set(ids["v1"], "Color", "Red"); err != nil {
		t.Fatal(err)
	}

	// The snapshot still answers from the pinned version.
	redAfter, _, err := snap.Query(ctx, "color", Query{Value: Exact("Red")})
	if err != nil {
		t.Fatal(err)
	}
	if len(redAfter) != len(redBefore) {
		t.Fatalf("snapshot red count changed %d → %d after writes", len(redBefore), len(redAfter))
	}
	// WithSnapshot routes a Database.Query through the same pinned view.
	viaOpt, _, err := db.Query(ctx, "color", Query{Value: Exact("Red")}, WithSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	if len(viaOpt) != len(redBefore) {
		t.Fatalf("WithSnapshot red count = %d, want %d", len(viaOpt), len(redBefore))
	}
	// A direct query sees the post-write state (2 seed reds − v4 + insert + recolor = 3).
	live, _, err := db.Query(ctx, "color", Query{Value: Exact("Red")})
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 3 {
		t.Fatalf("live red count = %d, want 3", len(live))
	}

	// Released snapshots refuse queries with the sentinel.
	if err := snap.Release(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := snap.Query(ctx, "color", Query{Value: Exact("Red")}); !errors.Is(err, ErrSnapshotReleased) {
		t.Fatalf("query after release = %v, want ErrSnapshotReleased", err)
	}
	if _, _, err := db.Query(ctx, "color", Query{Value: Exact("Red")}, WithSnapshot(snap)); !errors.Is(err, ErrSnapshotReleased) {
		t.Fatalf("WithSnapshot after release = %v, want ErrSnapshotReleased", err)
	}
}

func TestSnapshotMetadata(t *testing.T) {
	db, _ := paperDB(t)
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if got := snap.Indexes(); len(got) != 2 || got[0] != "color" || got[1] != "age" {
		t.Fatalf("Indexes = %v", got)
	}
	if _, ok := snap.Epoch("color"); !ok {
		t.Error("Epoch(color) not covered")
	}
	if _, ok := snap.Epoch("nope"); ok {
		t.Error("Epoch of unknown index covered")
	}
	if _, _, err := snap.Query(context.Background(), "nope", Query{Value: Exact("Red")}); !errors.Is(err, ErrIndexNotFound) {
		t.Fatalf("unknown index via snapshot = %v, want ErrIndexNotFound", err)
	}
}

// TestSentinelErrors: the exported sentinels match through errors.Is on
// every path that documents them.
func TestSentinelErrors(t *testing.T) {
	db, ids := paperDB(t)
	ctx := context.Background()

	if _, _, err := db.Query(ctx, "nope", Query{Value: Exact("Red")}); !errors.Is(err, ErrIndexNotFound) {
		t.Fatalf("Query unknown index = %v, want ErrIndexNotFound", err)
	}
	if err := db.DropIndex("nope"); !errors.Is(err, ErrIndexNotFound) {
		t.Fatalf("DropIndex unknown index = %v, want ErrIndexNotFound", err)
	}
	if _, err := db.Insert("Ghost", Attrs{"X": 1}); !errors.Is(err, ErrUnknownClass) {
		t.Fatalf("Insert unknown class = %v, want ErrUnknownClass", err)
	}

	if _, err := Load(bytes.NewReader([]byte("not a snapshot at all"))); !errors.Is(err, ErrInvalidSnapshot) {
		t.Fatalf("Load garbage = %v, want ErrInvalidSnapshot", err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	mangled := buf.Bytes()
	mangled[7] = 99 // snapshot format version
	if _, err := Load(bytes.NewReader(mangled)); !errors.Is(err, ErrInvalidSnapshot) {
		t.Fatalf("Load bad version = %v, want ErrInvalidSnapshot", err)
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, _, err := db.Query(ctx, "color", Query{Value: Exact("Red")}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Query closed = %v, want ErrClosed", err)
	}
	if _, err := db.Insert("Employee", Attrs{"Age": 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert closed = %v, want ErrClosed", err)
	}
	if err := db.Delete(ids["v1"]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Delete closed = %v, want ErrClosed", err)
	}
	if err := db.Set(ids["v1"], "Color", "Red"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Set closed = %v, want ErrClosed", err)
	}
	if err := db.CreateIndex(IndexSpec{Name: "x", Root: "Vehicle", Attr: "Color"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("CreateIndex closed = %v, want ErrClosed", err)
	}
	if _, err := db.Snapshot(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Snapshot closed = %v, want ErrClosed", err)
	}
	results := db.QueryParallel(ctx, []QueryJob{{Index: "color", Query: Query{Value: Exact("Red")}}}, 1)
	if !errors.Is(results[0].Err, ErrClosed) {
		t.Fatalf("QueryParallel closed = %v, want ErrClosed", results[0].Err)
	}
}

// TestQueryContextCancellation: a canceled context aborts queries on every
// surface.
func TestQueryContextCancellation(t *testing.T) {
	db, _ := paperDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := db.Query(ctx, "color", Query{Value: Exact("Red")}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Query canceled ctx = %v, want context.Canceled", err)
	}
	if _, _, err := db.Query(ctx, "color", Query{Value: Exact("Red")}, WithAlgorithm(Forward)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Forward query canceled ctx = %v, want context.Canceled", err)
	}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if _, _, err := snap.Query(ctx, "color", Query{Value: Exact("Red")}); !errors.Is(err, context.Canceled) {
		t.Fatalf("snapshot query canceled ctx = %v, want context.Canceled", err)
	}
	results := db.QueryParallel(ctx, []QueryJob{{Index: "color", Query: Query{Value: Exact("Red")}}}, 1)
	if !errors.Is(results[0].Err, context.Canceled) {
		t.Fatalf("QueryParallel canceled ctx = %v, want context.Canceled", results[0].Err)
	}
}

// TestWritersDoNotBlockReadersOrEachOther pins the locking design
// deterministically: while one index's write lock is held, (a) queries on
// that index still complete (readers never wait on writers) and (b) a write
// covered only by a different index still completes.
func TestWritersDoNotBlockReadersOrEachOther(t *testing.T) {
	s := NewSchema()
	if err := s.AddClass("A", "", Attr{Name: "X", Type: Uint64}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClass("B", "", Attr{Name: "Y", Type: Uint64}); err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex(IndexSpec{Name: "ax", Root: "A", Attr: "X"}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex(IndexSpec{Name: "by", Root: "B", Attr: "Y"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("A", Attrs{"X": uint64(1)}); err != nil {
		t.Fatal(err)
	}

	// Simulate a stalled writer on index "ax" by holding its write lock.
	ax, ok := db.Index("ax")
	if !ok {
		t.Fatal("index ax missing")
	}
	ax.LockWrite()
	defer ax.UnlockWrite()

	done := make(chan error, 2)
	go func() { // reader on the write-locked index
		_, _, err := db.Query(context.Background(), "ax", Query{Value: Exact(uint64(1))})
		done <- err
	}()
	go func() { // writer on the other index
		_, err := db.Insert("B", Attrs{"Y": uint64(7)})
		done <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotPageAccountingInvariance: logical page-read counts are a
// property of the pinned tree version, so the same query reports identical
// Stats through a snapshot and directly, and identical counts on a snapshot
// before and after unrelated writes move the live tree on.
func TestSnapshotPageAccountingInvariance(t *testing.T) {
	db, _ := paperDB(t)
	ctx := context.Background()
	q := Query{Value: Exact("Red"), Positions: []Position{On("Vehicle")}}
	for _, alg := range []Algorithm{Parallel, Forward} {
		snap, err := db.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		_, direct, err := db.Query(ctx, "color", q, WithAlgorithm(alg))
		if err != nil {
			t.Fatal(err)
		}
		_, snapped, err := snap.Query(ctx, "color", q, WithAlgorithm(alg))
		if err != nil {
			t.Fatal(err)
		}
		if direct.PagesRead != snapped.PagesRead || direct.Matches != snapped.Matches {
			t.Fatalf("alg %v: direct %+v vs snapshot %+v", alg, direct, snapped)
		}
		// Writes after the snapshot do not change its accounting.
		if _, err := db.Insert("Vehicle", Attrs{"Name": "N", "Color": "Red"}); err != nil {
			t.Fatal(err)
		}
		_, again, err := snap.Query(ctx, "color", q, WithAlgorithm(alg))
		if err != nil {
			t.Fatal(err)
		}
		if again.PagesRead != snapped.PagesRead || again.Matches != snapped.Matches {
			t.Fatalf("alg %v: snapshot accounting drifted %+v → %+v", alg, snapped, again)
		}
		snap.Release()
	}
}

// TestMixedWorkloadStress is the race-enabled stress test of the acceptance
// criteria: writers keep committing while Snapshot readers and direct
// queries run. Each snapshot reader asserts its view is frozen (identical
// match count on repeated queries); direct readers only assert success.
func TestMixedWorkloadStress(t *testing.T) {
	db, _ := paperDB(t)
	ctx := context.Background()
	colors := []string{"Red", "Blue", "White", "Green", "Black"}
	classes := []string{"Vehicle", "Automobile", "Truck", "CompactAutomobile"}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Two writers: one inserting vehicles (hits both indexes), one
	// inserting employees (hits only the age index's terminal class).
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				if w == 0 {
					_, err = db.Insert(classes[i%len(classes)], Attrs{
						"Name": fmt.Sprintf("w%d-%d", w, i), "Color": colors[i%len(colors)]})
				} else {
					_, err = db.Insert("Employee", Attrs{"Age": uint64(20 + i%50)})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for k := 0; k < 25; k++ {
				snap, err := db.Snapshot()
				if err != nil {
					t.Error(err)
					return
				}
				q := Query{Value: Exact(colors[(r+k)%len(colors)]), Positions: []Position{On("Vehicle")}}
				first, _, err := snap.Query(ctx, "color", q)
				if err != nil {
					t.Error(err)
				}
				second, _, err := snap.Query(ctx, "color", q)
				if err != nil {
					t.Error(err)
				}
				if len(first) != len(second) {
					t.Errorf("snapshot not frozen: %d then %d matches", len(first), len(second))
				}
				if _, _, err := db.Query(ctx, "age", Query{Value: Range(uint64(20), uint64(70))}); err != nil {
					t.Error(err)
				}
				if err := snap.Release(); err != nil {
					t.Error(err)
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	wg.Wait()
}

// TestSnapshotQueryFunc checks the streaming query against the collecting
// one: the same matches in the same order with the same stats, an early stop
// that ends the scan, and the snapshot's error surface.
func TestSnapshotQueryFunc(t *testing.T) {
	db, _ := paperDB(t)
	defer db.Close()
	ctx := context.Background()
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Value: OneOf("Red", "White"), Positions: []Position{On("Vehicle")}}
	want, wantStats, err := snap.Query(ctx, "color", q)
	if err != nil {
		t.Fatal(err)
	}
	var got []Match
	stats, err := snap.QueryFunc(ctx, "color", q, func(m Match) bool {
		got = append(got, m)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || stats != wantStats {
		t.Fatalf("QueryFunc streamed %v (%+v), Query returned %v (%+v)", got, stats, want, wantStats)
	}

	n := 0
	stats, err = snap.QueryFunc(ctx, "color", q, func(Match) bool {
		n++
		return n < 2
	})
	if err != nil || n != 2 || stats.Matches != 2 {
		t.Fatalf("early stop: fn ran %d times, %d matches, err %v", n, stats.Matches, err)
	}

	if _, err := snap.QueryFunc(ctx, "nope", q, func(Match) bool { return true }); !errors.Is(err, ErrIndexNotFound) {
		t.Fatalf("unknown index: %v", err)
	}
	snap.Release()
	if _, err := snap.QueryFunc(ctx, "color", q, func(Match) bool { return true }); !errors.Is(err, ErrSnapshotReleased) {
		t.Fatalf("released snapshot: %v", err)
	}
}

// TestQueryFuncNestedQueryDuringRelease runs queries from inside a
// QueryFunc callback while another goroutine releases the snapshot. The
// release must wait for the outer scan, and the nested queries must either
// complete or fail with ErrSnapshotReleased — never block behind the
// pending release, which would deadlock it against the scan it waits for.
func TestQueryFuncNestedQueryDuringRelease(t *testing.T) {
	db, _ := paperDB(t)
	defer db.Close()
	ctx := context.Background()
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Value: Exact("Red"), Positions: []Position{On("Vehicle")}}
	released := make(chan error, 1)
	first := true
	_, err = snap.QueryFunc(ctx, "color", q, func(Match) bool {
		if !first {
			return true
		}
		first = false
		go func() { released <- snap.Release() }()
		for {
			_, _, err := snap.Query(ctx, "color", q)
			if errors.Is(err, ErrSnapshotReleased) {
				return true // the release is now waiting for this scan
			}
			if err != nil {
				t.Errorf("nested query: %v", err)
				return false
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-released; err != nil {
		t.Fatal(err)
	}
}

// TestCloseWaitsForQueryDuringConcurrentRelease has a QueryFunc callback
// block while one goroutine releases the snapshot and another closes the
// database. The release reaches the snapshot first, so Close's own release
// of it is the second one; Close must still wait for the callback to return
// before it tears down the pools and files the scan is walking.
func TestCloseWaitsForQueryDuringConcurrentRelease(t *testing.T) {
	db, _ := paperDB(t)
	ctx := context.Background()
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Value: Exact("Red"), Positions: []Position{On("Vehicle")}}
	entered, unblock := make(chan struct{}), make(chan struct{})
	queryDone := make(chan error, 1)
	go func() {
		first := true
		_, err := snap.QueryFunc(ctx, "color", q, func(Match) bool {
			if first {
				first = false
				close(entered)
				<-unblock
			}
			return true
		})
		queryDone <- err
	}()
	<-entered

	released := make(chan error, 1)
	go func() { released <- snap.Release() }()
	for {
		snap.mu.Lock()
		r := snap.released
		snap.mu.Unlock()
		if r {
			break
		}
		runtime.Gosched()
	}
	closed := make(chan error, 1)
	go func() { closed <- db.Close() }()
	early := false
	select {
	case <-closed:
		early = true
		t.Error("Close returned while a snapshot query was still running")
	case <-time.After(100 * time.Millisecond):
	}
	close(unblock)
	if err := <-queryDone; err != nil {
		t.Fatal(err)
	}
	if err := <-released; err != nil {
		t.Fatal(err)
	}
	if early {
		return
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
}
