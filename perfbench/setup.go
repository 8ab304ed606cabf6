package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"sort"
	"time"

	uindex "repro"
	"repro/internal/server"
	"repro/internal/workload"
)

// wlSpec is how one workload runs the engine.
type wlSpec struct {
	served  bool // loopback uindexd, clients over the wire; else embedded
	disk    bool // Options.Dir set: index files (and the WAL) on disk
	readers int  // closed-loop reader connections or goroutines
	writer  bool // one open-loop pipelined writer connection
	opts    uindex.Options
}

// writeRate is durable_mixed's offered commit rate, about half of what two
// unthrottled writers commit on a 2-CPU machine.
const writeRate = 250

// walCheckpointBytes keeps durable_mixed's background checkpointer busy:
// at writeRate it folds the log several times per run.
const walCheckpointBytes = 64 << 10

var specs = map[string]wlSpec{
	// Every index page stays decoded in the node caches; no pool, no disk.
	// One connection: two closed-loop connections saturate both CPUs of a
	// 2-CPU machine with client, server and GC work, and their per-shape
	// medians then spread by more than a quarter from run to run.
	"hot_read": {served: true, readers: 1, opts: uindex.Options{NodeCacheSize: 1 << 14}},
	// 16 pool frames and 8 cached nodes per index, a tenth of the index
	// pages, and the mix reads every page alike, so most descents reach
	// the pager. Prefetch is off: with it on, a prefetch batch holds up to
	// 16 private frames while its scan reads on, and a read that then finds
	// every frame held fails with "all frames pinned" instead of waiting
	// (at 32 frames and two scans, about 0.15% of reads). The workload
	// holds prefetch back until that engine defect is fixed. One
	// goroutine: the reads allocate enough that the GC takes a third of
	// the CPU, and with two readers on a 2-CPU machine the medians spread
	// 0.10-0.15 of their value from run to run, against 0.05-0.08.
	"cold_scan": {readers: 1, disk: true, opts: uindex.Options{
		Durability: uindex.DurabilityCheckpoint, PoolPages: 16, NodeCacheSize: 8, NoPrefetch: true}},
	"durable_mixed": {served: true, disk: true, readers: 1, writer: true, opts: uindex.Options{
		Durability: uindex.DurabilityWAL, Shards: 2, WALCheckpointBytes: walCheckpointBytes}},
}

// answer is a query result reduced to what the checks compare: the match
// count, an order-independent hash of every match's OID path, and the
// paper's logical page count.
type answer struct {
	matches int
	hash    uint64
	pages   int
	entries int
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

func answerOf(ms []uindex.Match, st uindex.Stats) answer {
	a := answer{matches: len(ms), pages: st.PagesRead, entries: st.EntriesScanned}
	for _, m := range ms {
		var h uint64 = 1469598103934665603
		for _, e := range m.Path {
			h = mix64(h ^ uint64(e.OID))
		}
		a.hash += h
	}
	return a
}

// genInput is what Generate needs; setup generates afresh each time, since
// generation is part of set-up.
type genInput struct {
	seed   int64
	scale  Scale
	writes int
}

// bench is one set-up workload: the database, its server and clients, and
// the reference answers of every query the readers send.
type bench struct {
	name string
	spec wlSpec
	gen  *Gen
	dir  string
	db   *uindex.Database
	srv  *server.Server

	readers []*server.Client // served workloads: one per reader
	writer  *server.Client

	employees, companies, vehicles []uindex.OID

	// queries[c][i] is reader c's i-th read, compiled (embedded readers
	// run these); refs[c][i] its reference answer computed in process.
	queries [][]uindex.Query
	refs    [][]answer

	model *model // durable_mixed's acknowledged writes
	// done[k] closes when writer operation k (warm-up first) has been
	// answered; nextWrite is the next open-loop operation to send.
	done      []chan struct{}
	nextWrite int

	// setup facts for the environment record
	indexPages map[string]int
}

var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// setup builds the workload from scratch: load, index, checkpoint, serve,
// compute reference answers and warm up. Everything it does counts in
// setup_s.
func setup(ctx context.Context, name string, in genInput, dir string) (_ *bench, err error) {
	gen, err := Generate(name, in.seed, in.scale, in.writes)
	if err != nil {
		return nil, err
	}
	spec := specs[name]
	b := &bench{name: name, spec: spec, gen: gen, dir: dir}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	opts := spec.opts
	if spec.disk {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		opts.Dir = dir
	}
	sch, err := workload.Figure1Schema()
	if err != nil {
		return nil, err
	}
	if b.db, err = uindex.NewDatabaseWith(sch, opts); err != nil {
		return nil, err
	}
	if err := b.load(ctx); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	for _, ix := range []uindex.IndexSpec{
		{Name: colorIndex, Root: "Vehicle", Attr: "Color"},
		{Name: ageIndex, Root: "Vehicle", Refs: []string{"ManufacturedBy", "President"}, Attr: "Age"},
	} {
		if err := b.db.CreateIndex(ix); err != nil {
			return nil, fmt.Errorf("create index %s: %w", ix.Name, err)
		}
	}
	if spec.disk {
		if err := b.db.Checkpoint(); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
	}
	b.indexPages = map[string]int{}
	for _, name := range b.db.Indexes() {
		if ix, ok := b.db.Index(name); ok {
			if n, err := ix.PageCount(); err == nil {
				b.indexPages[name] = n
			}
		}
	}
	if spec.served {
		if err := b.serve(); err != nil {
			return nil, err
		}
	}
	if spec.writer {
		b.model = newModel(gen)
		if err := b.warmWrites(ctx); err != nil {
			return nil, fmt.Errorf("writer warm-up: %w", err)
		}
		b.done = make([]chan struct{}, len(gen.Warmup)+len(gen.Writes))
		for i := range b.done {
			b.done[i] = make(chan struct{})
			if i < len(gen.Warmup) {
				close(b.done[i])
			}
		}
	}
	if err := b.reference(ctx); err != nil {
		return nil, err
	}
	return b, b.warmReads(ctx)
}

// load inserts every generated object with Apply batches, before the
// indexes exist.
func (b *bench) load(ctx context.Context) error {
	const chunk = 1000
	apply := func(n int, add func(batch *uindex.Batch, i int)) ([]uindex.OID, error) {
		var out []uindex.OID
		for lo := 0; lo < n; lo += chunk {
			var batch uindex.Batch
			for i := lo; i < min(n, lo+chunk); i++ {
				add(&batch, i)
			}
			res, err := b.db.Apply(ctx, &batch)
			if err != nil {
				return nil, err
			}
			out = append(out, res.OIDs...)
		}
		return out, nil
	}
	g := b.gen
	var err error
	if b.employees, err = apply(len(g.Employees), func(batch *uindex.Batch, i int) {
		batch.Insert("Employee", uindex.Attrs{"Age": g.Employees[i].Age})
	}); err != nil {
		return err
	}
	if b.companies, err = apply(len(g.Companies), func(batch *uindex.Batch, i int) {
		c := g.Companies[i]
		batch.Insert(c.Class, uindex.Attrs{"Name": c.Name, "President": b.employees[c.President]})
	}); err != nil {
		return err
	}
	b.vehicles, err = apply(len(g.Vehicles), func(batch *uindex.Batch, i int) {
		batch.Insert(g.Vehicles[i].Class, b.vehicleAttrs(g.Vehicles[i]))
	})
	return err
}

func (b *bench) vehicleAttrs(v NewVehicle) uindex.Attrs {
	return uindex.Attrs{"Name": v.Name, "Color": v.Color, "ManufacturedBy": b.companies[v.Maker]}
}

// serve starts a loopback uindexd on the database and dials the clients.
func (b *bench) serve() error {
	srv, err := server.New(server.Config{DB: b.db, Addr: "127.0.0.1:0", Logger: quietLog})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	b.srv = srv
	for i := 0; i < b.spec.readers; i++ {
		c, err := server.Dial(srv.Addr())
		if err != nil {
			return err
		}
		b.readers = append(b.readers, c)
	}
	if b.spec.writer {
		if b.writer, err = server.Dial(srv.Addr()); err != nil {
			return err
		}
	}
	return nil
}

// reference compiles every reader's queries and answers each distinct one
// in process.
func (b *bench) reference(ctx context.Context) error {
	type key struct{ index, text string }
	seen := map[key]answer{}
	compiled := map[key]uindex.Query{}
	b.queries = make([][]uindex.Query, b.spec.readers)
	b.refs = make([][]answer, b.spec.readers)
	for c := 0; c < b.spec.readers; c++ {
		for _, op := range b.gen.Reads[c] {
			k := key{op.Index, op.Text}
			q, ok := compiled[k]
			if !ok {
				ix, found := b.db.Index(op.Index)
				if !found {
					return fmt.Errorf("no index %q", op.Index)
				}
				var err error
				if q, err = uindex.ParseQuery(ix, op.Text); err != nil {
					return err
				}
				compiled[k] = q
				ms, st, err := b.db.Query(ctx, op.Index, q)
				if err != nil {
					return fmt.Errorf("reference %s: %w", op.Text, err)
				}
				seen[k] = answerOf(ms, st)
			}
			b.queries[c] = append(b.queries[c], q)
			b.refs[c] = append(b.refs[c], seen[k])
		}
	}
	return nil
}

// warmReads sends every reader's list once over the wire, so connection
// buffers and server sessions are warm before the first timed op.
func (b *bench) warmReads(ctx context.Context) error {
	for c, cl := range b.readers {
		for _, op := range b.gen.Reads[c] {
			if _, _, err := cl.Query(ctx, op.Index, op.Text); err != nil {
				return fmt.Errorf("warm-up %s: %w", op.Text, err)
			}
		}
	}
	return nil
}

func (b *bench) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, c := range append(b.readers, b.writer) {
		if c != nil {
			c.Close()
		}
	}
	b.readers, b.writer = nil, nil
	if b.srv != nil {
		keep(b.srv.Shutdown(context.Background()))
		b.srv = nil
	}
	if b.db != nil {
		keep(b.db.Close())
		b.db = nil
	}
	return first
}

// liveObjects counts the objects a checked run leaves in the database.
func (b *bench) liveObjects() int {
	n := len(b.employees) + len(b.companies) + len(b.vehicles)
	if b.model != nil {
		n += b.model.liveOwn()
	}
	return n
}

// dirBytes sums the sizes of every file under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if !info.IsDir() {
			total += info.Size()
		}
	}
	return total, nil
}

// setupRepeated runs setup n times, closing all but the last, and returns
// the last bench with the median setup time. The repetitions make setup_s
// a median rather than a single sample.
func setupRepeated(ctx context.Context, name string, in genInput, dir string, n int) (*bench, float64, error) {
	var times []float64
	var b *bench
	for i := 0; i < n; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, 0, err
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		if b, err = setup(ctx, name, in, dir); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	sort.Float64s(times)
	return b, times[len(times)/2], nil
}
