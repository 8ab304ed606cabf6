package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	uindex "repro"
	"repro/internal/demo"
)

// The four query shapes of the paper's taxonomy, phrased over the demo
// database. All of them avoid the "Z…" colors the write phases insert, so
// their match counts stay deterministic under concurrent writes.
var shapeQueries = []struct {
	shape, index, query string
	matches             int
}{
	{"exact", "color", "(Color=Red, Automobile)", 1},        // v3 only: exact class
	{"range", "color", "(Color=[Blue-Red], Vehicle*)", 3},   // v3, v4, v5
	{"subtree", "color", "(Color=Red, Vehicle*)", 2},        // v3, v4
	{"parscan", "color", "(Color={Red,Blue}, Vehicle*)", 3}, // v3, v4, v5
}

func discard() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// newTestServer builds the Example-1 demo database and serves it on
// ephemeral ports.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *uindex.Database) {
	t.Helper()
	db, _, err := demo.Build(uindex.Options{PoolPages: 16})
	if err != nil {
		t.Fatalf("demo.Build: %v", err)
	}
	cfg := Config{DB: db, Addr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", Logger: discard()}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		db.Close()
		t.Fatalf("New: %v", err)
	}
	if err := srv.Start(); err != nil {
		db.Close()
		t.Fatalf("Start: %v", err)
	}
	return srv, db
}

func dialT(t *testing.T, srv *Server) *Client {
	t.Helper()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial(%s): %v", srv.Addr(), err)
	}
	return c
}

// waitGoroutines waits for the goroutine count to come back near base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d running, started with %d\n%s",
				runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEndToEnd is the acceptance path: ephemeral port, concurrent clients
// issuing all four query shapes plus writes and a checkpoint, graceful
// shutdown, no goroutine leaks, then a clean reopen of the persisted state.
func TestEndToEnd(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	srv, db := newTestServer(t, nil)
	defer db.Close()

	ctx := context.Background()
	const clients = 4
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errc <- runClientWorkload(ctx, srv.Addr(), i)
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Graceful drain; afterwards new dials must be refused.
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if c, err := Dial(srv.Addr()); err == nil {
		c.Close()
		t.Fatal("Dial succeeded after Shutdown")
	}
	waitGoroutines(t, baseGoroutines)

	// Clean reopen: snapshot the drained state, load it into a fresh
	// disk-backed database, and check the shape queries still answer.
	path := t.TempDir() + "/store.usnap"
	if err := db.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	db2, err := uindex.LoadFileWith(path, uindex.Options{Dir: t.TempDir(), PoolPages: 16})
	if err != nil {
		t.Fatalf("LoadFileWith: %v", err)
	}
	defer db2.Close()
	srv2, err := New(Config{DB: db2, Addr: "127.0.0.1:0", Logger: discard()})
	if err != nil {
		t.Fatalf("New (reopen): %v", err)
	}
	if err := srv2.Start(); err != nil {
		t.Fatalf("Start (reopen): %v", err)
	}
	c := dialT(t, srv2)
	for _, sq := range shapeQueries {
		ms, _, err := c.Query(ctx, sq.index, sq.query)
		if err != nil {
			t.Fatalf("reopen query %s: %v", sq.query, err)
		}
		if len(ms) != sq.matches {
			t.Fatalf("reopen query %s: %d matches, want %d", sq.query, len(ms), sq.matches)
		}
	}
	c.Close()
	if err := srv2.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown (reopen): %v", err)
	}
}

// runClientWorkload is one concurrent client: the four shapes with exact
// expected counts, then an insert/read-your-write/set/delete cycle on a
// private color, then a checkpoint.
func runClientWorkload(ctx context.Context, addr string, i int) error {
	c, err := Dial(addr)
	if err != nil {
		return fmt.Errorf("client %d: %w", i, err)
	}
	defer c.Close()
	for round := 0; round < 5; round++ {
		for _, sq := range shapeQueries {
			ms, stats, err := c.Query(ctx, sq.index, sq.query)
			if err != nil {
				return fmt.Errorf("client %d %s: %w", i, sq.query, err)
			}
			if len(ms) != sq.matches {
				return fmt.Errorf("client %d %s: %d matches, want %d", i, sq.query, len(ms), sq.matches)
			}
			if stats.Matches != len(ms) {
				return fmt.Errorf("client %d %s: stats.Matches=%d, len=%d", i, sq.query, stats.Matches, len(ms))
			}
		}
		// Forward algorithm answers the same question.
		ms, stats, err := c.QueryAlgorithm(ctx, "color", "(Color=Red, Vehicle*)", uindex.Forward)
		if err != nil || len(ms) != 2 {
			return fmt.Errorf("client %d forward: %d matches, err %v", i, len(ms), err)
		}
		if stats.Algorithm != uindex.Forward {
			return fmt.Errorf("client %d forward: stats algorithm %v", i, stats.Algorithm)
		}

		color := fmt.Sprintf("Z%dr%d", i, round)
		oid, err := c.Insert(ctx, "Automobile", uindex.Attrs{"Name": "tmp", "Color": color})
		if err != nil {
			return fmt.Errorf("client %d insert: %w", i, err)
		}
		// Read-your-write: the session snapshot refreshed on insert.
		q := fmt.Sprintf("(Color=%s, Vehicle*)", color)
		if ms, _, err := c.Query(ctx, "color", q); err != nil || len(ms) != 1 {
			return fmt.Errorf("client %d read-your-write: %d matches, err %v", i, len(ms), err)
		}
		color2 := color + "x"
		if err := c.Set(ctx, oid, "Color", color2); err != nil {
			return fmt.Errorf("client %d set: %w", i, err)
		}
		q2 := fmt.Sprintf("(Color=%s, Vehicle*)", color2)
		if ms, _, err := c.Query(ctx, "color", q2); err != nil || len(ms) != 1 {
			return fmt.Errorf("client %d post-set: %d matches, err %v", i, len(ms), err)
		}
		if err := c.Delete(ctx, oid); err != nil {
			return fmt.Errorf("client %d delete: %w", i, err)
		}
		if ms, _, err := c.Query(ctx, "color", q2); err != nil || len(ms) != 0 {
			return fmt.Errorf("client %d post-delete: %d matches, err %v", i, len(ms), err)
		}
	}
	if err := c.Checkpoint(ctx); err != nil {
		return fmt.Errorf("client %d checkpoint: %w", i, err)
	}
	return c.Ping(ctx)
}

// TestApplyBatch exercises the batched write surface over the wire: one
// round trip applies several inserts, read-your-write sees all of them, a
// second batch mutates and deletes them, and planning errors come back as
// typed errors without applying anything.
func TestApplyBatch(t *testing.T) {
	srv, db := newTestServer(t, nil)
	defer db.Close()
	defer srv.Shutdown(context.Background())
	ctx := context.Background()
	c := dialT(t, srv)
	defer c.Close()

	// Empty batches are free.
	if res, err := c.ApplyBatch(ctx, &uindex.Batch{}); err != nil || res.Applied != 0 {
		t.Fatalf("empty batch: %+v, %v", res, err)
	}

	var b uindex.Batch
	const n = 5
	for i := 0; i < n; i++ {
		b.Insert("Automobile", uindex.Attrs{"Name": fmt.Sprintf("B%d", i), "Color": "Zbatch"})
	}
	res, err := c.ApplyBatch(ctx, &b)
	if err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if res.Applied != n || len(res.OIDs) != n {
		t.Fatalf("ApplyBatch result = %+v", res)
	}
	// Read-your-write: the session snapshot refreshed with the batch.
	if ms, _, err := c.Query(ctx, "color", "(Color=Zbatch, Vehicle*)"); err != nil || len(ms) != n {
		t.Fatalf("post-batch query: %d matches, err %v", len(ms), err)
	}

	// Second batch: recolor one, delete the rest.
	b.Reset()
	b.Set(res.OIDs[0], "Color", "Zkept")
	for _, oid := range res.OIDs[1:] {
		b.Delete(oid)
	}
	res2, err := c.ApplyBatch(ctx, &b)
	if err != nil || res2.Applied != n {
		t.Fatalf("second batch: %+v, %v", res2, err)
	}
	if ms, _, err := c.Query(ctx, "color", "(Color=Zbatch, Vehicle*)"); err != nil || len(ms) != 0 {
		t.Fatalf("post-delete query: %d matches, err %v", len(ms), err)
	}
	if ms, _, err := c.Query(ctx, "color", "(Color=Zkept, Vehicle*)"); err != nil || len(ms) != 1 {
		t.Fatalf("post-set query: %d matches, err %v", len(ms), err)
	}

	// Planning failure: unknown class rejects the whole batch before any op.
	b.Reset()
	b.Insert("Ghost", uindex.Attrs{"Color": "Znever"})
	if _, err := c.ApplyBatch(ctx, &b); !errors.Is(err, uindex.ErrUnknownClass) {
		t.Fatalf("unknown-class batch error = %v", err)
	}
	if ms, _, err := c.Query(ctx, "color", "(Color=Znever, Vehicle*)"); err != nil || len(ms) != 0 {
		t.Fatalf("rejected batch leaked a write: %d matches, err %v", len(ms), err)
	}
}

// TestSnapshotIsolation pins the session-snapshot semantics: a session does
// not observe another session's committed write until it refreshes.
func TestSnapshotIsolation(t *testing.T) {
	srv, db := newTestServer(t, nil)
	defer db.Close()
	defer srv.Shutdown(context.Background())
	ctx := context.Background()

	a, b := dialT(t, srv), dialT(t, srv)
	defer a.Close()
	defer b.Close()
	if err := a.Ping(ctx); err != nil { // session pinned at current state
		t.Fatal(err)
	}
	oid, err := b.Insert(ctx, "Automobile", uindex.Attrs{"Name": "iso", "Color": "Ziso"})
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	const q = "(Color=Ziso, Vehicle*)"
	if ms, _, err := b.Query(ctx, "color", q); err != nil || len(ms) != 1 {
		t.Fatalf("writer session: %d matches, err %v (want its own write)", len(ms), err)
	}
	if ms, _, err := a.Query(ctx, "color", q); err != nil || len(ms) != 0 {
		t.Fatalf("reader session: %d matches, err %v (want isolation)", len(ms), err)
	}
	if err := a.Refresh(ctx); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	if ms, _, err := a.Query(ctx, "color", q); err != nil || len(ms) != 1 {
		t.Fatalf("reader session after refresh: %d matches, err %v", len(ms), err)
	}
	if err := b.Delete(ctx, oid); err != nil {
		t.Fatal(err)
	}
}

// TestTypedErrors checks the sentinel mapping across the wire.
func TestTypedErrors(t *testing.T) {
	srv, db := newTestServer(t, nil)
	defer db.Close()
	defer srv.Shutdown(context.Background())
	ctx := context.Background()
	c := dialT(t, srv)
	defer c.Close()

	if _, _, err := c.Query(ctx, "nope", "(Color=Red, Vehicle*)"); !errors.Is(err, uindex.ErrIndexNotFound) {
		t.Fatalf("want ErrIndexNotFound, got %v", err)
	}
	if _, err := c.Insert(ctx, "NoSuchClass", uindex.Attrs{"A": "b"}); !errors.Is(err, uindex.ErrUnknownClass) {
		t.Fatalf("want ErrUnknownClass, got %v", err)
	}
	if _, _, err := c.Query(ctx, "color", "((((("); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("want ErrBadRequest, got %v", err)
	}
}

// TestGracefulDrainCompletesInflight holds a request in-flight while
// Shutdown runs and asserts the request still gets its response.
func TestGracefulDrainCompletesInflight(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	srv, db := newTestServer(t, nil)
	defer db.Close()
	srv.testHookServe = func(op Op) {
		if op == OpCheckpoint {
			entered <- struct{}{}
			<-release
		}
	}
	c := dialT(t, srv)
	defer c.Close()

	reqErr := make(chan error, 1)
	go func() { reqErr <- c.Checkpoint(context.Background()) }()
	<-entered // the request is admitted and executing

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr <- srv.Shutdown(ctx)
	}()
	select {
	case err := <-drainErr:
		t.Fatalf("Shutdown returned %v while a request was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-reqErr; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestOverloadRetryLater saturates a 2-slot admission budget and asserts
// the third request is shed with ErrRetryLater, the rejection counter
// moves, and the in-flight gauge never exceeds the bound.
func TestOverloadRetryLater(t *testing.T) {
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	srv, db := newTestServer(t, func(cfg *Config) { cfg.MaxInFlight = 2 })
	defer db.Close()
	defer func() { srv.Shutdown(context.Background()) }()
	srv.testHookServe = func(op Op) {
		if op == OpPing {
			entered <- struct{}{}
			<-release
		}
	}
	c := dialT(t, srv)
	defer c.Close()
	ctx := context.Background()

	blocked := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { blocked <- c.Ping(ctx) }()
	}
	<-entered
	<-entered // both admission slots held

	if err := c.Checkpoint(ctx); !errors.Is(err, ErrRetryLater) {
		t.Fatalf("want ErrRetryLater at full admission, got %v", err)
	}

	body := scrapeMetrics(t, srv)
	if !strings.Contains(body, "uindexd_admission_rejected_total 1") {
		t.Fatalf("/metrics missing rejection count:\n%s", grepMetrics(body, "uindexd_admission"))
	}
	if !strings.Contains(body, "uindexd_inflight_requests 2") {
		t.Fatalf("/metrics in-flight gauge should sit at the bound:\n%s", grepMetrics(body, "inflight"))
	}

	close(release)
	for i := 0; i < 2; i++ {
		if err := <-blocked; err != nil {
			t.Fatalf("blocked request %d: %v", i, err)
		}
	}
	if err := c.Checkpoint(ctx); err != nil {
		t.Fatalf("post-release request: %v", err)
	}
}

// TestDBCloseWhileSessionsActive closes the database out from under live
// sessions: requests must come back as typed errors — never a panic, never
// a hang — and the drained server must report zero active snapshots.
func TestDBCloseWhileSessionsActive(t *testing.T) {
	srv, db := newTestServer(t, func(cfg *Config) { cfg.NoCheckpointOnDrain = true })
	ctx := context.Background()
	const clients = 3
	var cs []*Client
	for i := 0; i < clients; i++ {
		c := dialT(t, srv)
		defer c.Close()
		if err := c.Ping(ctx); err != nil { // session snapshot pinned
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _, err := c.Query(ctx, "color", "(Color=Red, Vehicle*)")
				if err == nil {
					continue
				}
				if errors.Is(err, uindex.ErrClosed) || errors.Is(err, uindex.ErrSnapshotReleased) {
					return // the typed error a remote caller can branch on
				}
				t.Errorf("unexpected error class: %v", err)
				return
			}
		}(c)
	}
	time.Sleep(10 * time.Millisecond)
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	close(stop)
	wg.Wait()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown after Close: %v", err)
	}
	if n := db.Metrics().SnapshotsActive; n != 0 {
		t.Fatalf("%d snapshots still pinned after Close+Shutdown", n)
	}
}

// TestOversizedFrameClosesConnection sends a frame above the limit and
// expects the connection dropped and the counter bumped.
func TestOversizedFrameClosesConnection(t *testing.T) {
	srv, db := newTestServer(t, func(cfg *Config) { cfg.MaxFrame = 1 << 10 })
	defer db.Close()
	defer srv.Shutdown(context.Background())
	c := dialT(t, srv)
	defer c.Close()

	// Bypass the client API: write a 2 KiB frame raw.
	c.wmu.Lock()
	err := writeFrame(c.nc, make([]byte, 2<<10))
	c.wmu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Ping(ctx); err == nil {
		t.Fatal("connection survived an oversized frame")
	}
	if !strings.Contains(scrapeMetrics(t, srv), "uindexd_oversized_frames_total 1") {
		t.Fatal("oversized-frame counter did not move")
	}
}

// TestMetricsEndpoint checks the ops listener surface: engine and server
// series on /metrics, and the health endpoints.
func TestMetricsEndpoint(t *testing.T) {
	srv, db := newTestServer(t, nil)
	defer db.Close()
	defer srv.Shutdown(context.Background())
	ctx := context.Background()
	c := dialT(t, srv)
	defer c.Close()
	for _, sq := range shapeQueries {
		if _, _, err := c.Query(ctx, sq.index, sq.query); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Insert(ctx, "Automobile", uindex.Attrs{"Name": "m", "Color": "Zm"}); err != nil {
		t.Fatal(err)
	}

	body := scrapeMetrics(t, srv)
	for _, want := range []string{
		`uindexd_requests_total{shape="exact"} 1`,
		`uindexd_requests_total{shape="range"} 1`,
		`uindexd_requests_total{shape="subtree"} 1`,
		`uindexd_requests_total{shape="parscan"} 1`,
		`uindexd_requests_total{shape="write"} 1`,
		`uindexd_request_seconds_bucket{shape="exact",le="+Inf"} 1`,
		`uindexd_request_seconds_count{shape="exact"} 1`,
		"uindexd_inflight_requests",
		"uindexd_admission_rejected_total 0",
		"uindexd_sessions_active 1",
		"uindex_pool_hits_total",
		"uindex_pool_misses_total",
		"uindex_nodecache_hits_total",
		"uindex_nodecache_misses_total",
		"uindex_queries_total",
		"uindex_inserts_total",
		"uindex_snapshots_active 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Log(body)
	}

	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200} {
		resp, err := http.Get("http://" + srv.HTTPAddr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func scrapeMetrics(t *testing.T, srv *Server) string {
	t.Helper()
	resp, err := http.Get("http://" + srv.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("scrape content type %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func grepMetrics(body, substr string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestResultsSurviveLaterQueries pins the client-visible lifetime of query
// results: the server encodes into pooled buffers and the client decodes
// into shared values and path arenas, and none of that may alias a result
// already returned. Several goroutines share one connection; each keeps
// every result it receives and, after later queries on the connection,
// checks them against an in-process answer. Large results (past the pooled
// buffer's initial size) and small ones interleave.
func TestResultsSurviveLaterQueries(t *testing.T) {
	srv, db := newTestServer(t, nil)
	defer db.Close()
	defer srv.Shutdown(context.Background())
	ctx := context.Background()
	c := dialT(t, srv)
	defer c.Close()

	var b uindex.Batch
	for i := 0; i < 400; i++ {
		b.Insert([]string{"Vehicle", "Automobile", "Truck"}[i%3], uindex.Attrs{
			"Name": fmt.Sprintf("S%d", i), "Color": fmt.Sprintf("Zs%d", i%5)})
	}
	if _, err := c.ApplyBatch(ctx, &b); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"(Color=[Zs0-Zs4], Vehicle*)", // past the pooled buffer's initial 4 KiB
		"(Color=Red, Vehicle*)",
		"(Color={Zs1,Zs3}, Automobile)",
		"(Color=Blue, Vehicle*)",
		"(Color=[Zs2-Zs3], Truck)",
	}
	want := make(map[string]string, len(queries))
	for _, q := range queries {
		ix, _ := db.Index("color")
		pq, err := uindex.ParseQuery(ix, q)
		if err != nil {
			t.Fatal(err)
		}
		ms, _, err := db.Query(ctx, "color", pq)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = fmt.Sprint(ms)
	}

	type kept struct {
		query string
		ms    []uindex.Match
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var results []kept
			for k := 0; k < 25; k++ {
				q := queries[(g+k)%len(queries)]
				ms, _, err := c.Query(ctx, "color", q)
				if err != nil {
					errs <- err
					return
				}
				results = append(results, kept{q, ms})
				// Every earlier result must be unchanged by the queries
				// since.
				for i, r := range results {
					if got := fmt.Sprint(r.ms); got != want[r.query] {
						errs <- fmt.Errorf("goroutine %d: result %d of %q changed after %d later queries:\n got %s\nwant %s",
							g, i, r.query, len(results)-1-i, got, want[r.query])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
