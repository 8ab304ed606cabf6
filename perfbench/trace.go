package main

// The traced run. Tracing here is done from outside the program: every
// operation gets a trace id, its root span is the call as issued (client
// or facade call), and its child spans are the benchmark's own calls into
// the layers below for the same operation — uindex.ParseQuery on its text
// and an in-process Database.Query of the same query. Each span keeps the
// Stats counters that call returned; engine, server, runtime and kernel
// counters are snapshotted at the phase boundaries. Spans stay in memory
// and are written out when the run ends.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	uindex "repro"
	"repro/internal/pager"
	"repro/internal/wal"
)

// span is one timed call. Start and End are nanoseconds since the phase
// began; Parent 0 marks the root.
type span struct {
	Trace  uint64        `json:"trace"`
	ID     uint32        `json:"id"`
	Parent uint32        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Shape  string        `json:"shape,omitempty"`
	Start  int64         `json:"start_ns"`
	End    int64         `json:"end_ns"`
	Stats  *uindex.Stats `json:"stats,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer hands out trace ids for one goroutine.
type tracer struct {
	t0    time.Time
	trace uint64
}

func (t *tracer) next() uint64 { t.trace++; return t.trace }

func (t *tracer) at(x time.Time) int64 { return x.Sub(t.t0).Nanoseconds() }

// traceRead records one read's spans: the issued call, then the parse and
// in-process query the benchmark makes for the same operation.
func (b *bench) traceRead(ctx context.Context, tr *tracer, c, pos int, start, stop time.Time, st uindex.Stats, out []span) []span {
	op := b.gen.Reads[c][pos]
	id := tr.next()
	root := "Database.Query"
	if b.spec.served {
		root = "server.Client.Query"
	}
	rs := st
	out = append(out, span{Trace: id, ID: 1, Name: root, Shape: op.Shape.String(), Start: tr.at(start), End: tr.at(stop), Stats: &rs})
	ix, _ := b.db.Index(op.Index)
	t := time.Now()
	q, err := uindex.ParseQuery(ix, op.Text)
	u := time.Now()
	if err != nil {
		return out
	}
	out = append(out, span{Trace: id, ID: 2, Parent: 1, Name: "uindex.ParseQuery", Shape: op.Shape.String(), Start: tr.at(t), End: tr.at(u)})
	if !b.spec.served {
		return out // the root already is the in-process query
	}
	_, qs, err := b.db.Query(ctx, op.Index, q)
	v := time.Now()
	if err == nil {
		out = append(out, span{Trace: id, ID: 3, Parent: 1, Name: "Database.Query", Shape: op.Shape.String(), Start: tr.at(u), End: tr.at(v), Stats: &qs})
	}
	return out
}

// selfTimes returns, per span name, the median of each span's duration
// minus the part of it its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	type key struct {
		trace uint64
		id    uint32
	}
	children := map[key][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[key{s.Trace, s.Parent}] = append(children[key{s.Trace, s.Parent}], s)
		}
	}
	by := map[string][]float64{}
	for _, s := range spans {
		self := s.End - s.Start
		for _, c := range children[key{s.Trace, s.ID}] {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				self -= hi - lo
			}
		}
		by[s.Name] = append(by[s.Name], float64(self))
	}
	out := map[string]time.Duration{}
	for name, v := range by {
		out[name] = time.Duration(median(v))
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// snapshot is every counter the layers export, read at a phase boundary.
type snapshot struct {
	engine     uindex.Metrics
	prom       map[string]float64
	rt         map[string]float64
	ioWrite    float64
	userBytes  float64 // bytes of mutations the writer sent
	shardWrite []uint64
}

var rtNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/gc/cycles/total:gc-cycles"}

func (b *bench) snap() snapshot {
	s := snapshot{engine: b.db.Metrics(), prom: map[string]float64{}, rt: map[string]float64{}}
	if b.srv != nil {
		var buf bytes.Buffer
		if err := b.srv.Registry().WritePrometheus(&buf); err == nil {
			for _, line := range strings.Split(buf.String(), "\n") {
				if line == "" || line[0] == '#' {
					continue
				}
				if i := strings.LastIndexByte(line, ' '); i > 0 {
					if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
						s.prom[line[:i]] = v
					}
				}
			}
		}
	}
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	for _, sm := range samples {
		switch sm.Value.Kind() {
		case metrics.KindFloat64:
			s.rt[sm.Name] = sm.Value.Float64()
		case metrics.KindUint64:
			s.rt[sm.Name] = float64(sm.Value.Uint64())
		}
	}
	s.ioWrite = procIOWriteBytes()
	if b.model != nil {
		b.model.mu.Lock()
		s.userBytes = float64(b.model.userBytes)
		b.model.mu.Unlock()
	}
	if ss, ok := b.db.ShardStats(colorIndex); ok {
		for _, st := range ss {
			s.shardWrite = append(s.shardWrite, st.Writes)
		}
	}
	return s
}

// procIOWriteBytes is the bytes this process caused to be written to
// storage (/proc/self/io write_bytes); 0 where the kernel does not say.
func procIOWriteBytes() float64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes: "); ok {
			f, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return f
		}
	}
	return 0
}

// readShapesServer are the server's labels for query requests.
var readShapesServer = []string{"exact", "range", "subtree", "parscan"}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics of a traced phase from its
// spans and the counter snapshots around it.
func (b *bench) layerMetrics(p *phase, before, after snapshot, lagMax uint64) map[string]float64 {
	m := map[string]float64{}
	d := func(name string) float64 { return after.prom[name] - before.prom[name] }
	var busySum, busyCount float64
	for _, sh := range readShapesServer {
		busySum += d(`uindexd_request_seconds_sum{shape="` + sh + `"}`)
		busyCount += d(`uindexd_request_seconds_count{shape="` + sh + `"}`)
	}
	reads := float64(len(p.reads))
	busy := ratio(busySum, busyCount) * 1e3
	m["server.busy_ms"] = busy
	var rtSum float64
	var rtN int
	var parse []float64
	core := map[string][]float64{}
	var decoded, coreN float64
	for _, s := range p.spans {
		switch s.Name {
		case "server.Client.Query":
			rtSum += float64(s.dur())
			rtN++
		case "uindex.ParseQuery":
			parse = append(parse, float64(s.dur()))
		case "Database.Query":
			core[s.Shape] = append(core[s.Shape], float64(s.dur()))
			decoded += float64(s.Stats.BytesDecoded)
			coreN++
		}
	}
	if rtN > 0 {
		m["server.wire_ms"] = rtSum/float64(rtN)/1e6 - busy
	} else {
		m["server.wire_ms"] = 0
	}
	m["server.bytes_out_per_read"] = ratio(d("uindexd_bytes_out_total"), reads)
	m["server.rejected"] = float64(p.rejected)
	m["querylang.parse_us"] = median(parse) / 1e3
	for _, sh := range shapeNames {
		m["core.query_us."+sh] = median(core[sh]) / 1e3
	}
	m["btree.bytes_decoded_per_query"] = ratio(decoded, coreN)

	e0, e1 := before.engine, after.engine
	nc := float64(e1.NodeCache.Hits - e0.NodeCache.Hits)
	m["btree.node_cache_hit_ratio"] = ratio(nc, nc+float64(e1.NodeCache.Misses-e0.NodeCache.Misses))
	queries := float64(e1.Queries - e0.Queries)
	pool := e1.Pool
	pool.Sub(e0.Pool)
	m["bufferpool.hit_ratio"] = pool.HitRate()
	m["bufferpool.misses_per_query"] = ratio(float64(pool.Misses), queries)
	m["bufferpool.evictions_per_query"] = ratio(float64(pool.Evictions), queries)
	m["bufferpool.prefetch_pages_per_query"] = ratio(float64(pool.PrefetchPages), queries)
	m["bufferpool.prefetch_useful_ratio"] = ratio(float64(pool.PrefetchHits), float64(pool.PrefetchPages))
	m["pager.physical_reads_per_query"] = ratio(float64(pool.PhysicalReads), queries)
	m["pager.pages_per_batch_read"] = ratio(float64(pool.PrefetchPages), float64(pool.BatchReads))

	commits := float64(len(p.commits))
	m["pager.write_bytes_per_user_byte"] = ratio(after.ioWrite-before.ioWrite, after.userBytes-before.userBytes)
	m["wal.fsyncs_per_commit"] = ratio(float64(e1.WALFsyncs-e0.WALFsyncs), commits)
	m["wal.records_per_group_commit"] = ratio(float64(e1.WALBatchRecords-e0.WALBatchRecords), float64(e1.WALBatches-e0.WALBatches))
	m["wal.lag_bytes_max"] = float64(lagMax)
	m["wal.checkpoints"] = float64(e1.WALCheckpoints - e0.WALCheckpoints)

	var wmax, wmin float64
	for i := range after.shardWrite {
		w := float64(after.shardWrite[i] - before.shardWrite[i])
		if i == 0 || w > wmax {
			wmax = w
		}
		if i == 0 || w < wmin {
			wmin = w
		}
	}
	m["core.shard_write_skew"] = ratio(wmax, wmin)

	gc := after.rt[rtNames[0]] - before.rt[rtNames[0]]
	cpu := after.rt[rtNames[1]] - before.rt[rtNames[1]]
	m["runtime.gc_cpu_fraction"] = ratio(gc, cpu)
	ops := reads + commits
	m["runtime.gc_per_kop"] = ratio(after.rt[rtNames[2]]-before.rt[rtNames[2]], ops/1e3)
	m["loadgen.late_p99_ms"] = 0
	if len(p.late) > 0 {
		m["loadgen.late_p99_ms"] = durQuantile(p.late, 0.99)
	}
	return m
}

// logicalMetrics are the paper's logical counts per shape. On read-only
// workloads they come from the reference answers of the readers' lists,
// which every live answer was checked against, so they repeat exactly for
// a seed. Where a writer changes the data under the reader they come from
// the Stats the traced phase's own queries returned.
func (b *bench) logicalMetrics(p *phase) map[string]float64 {
	var pages, matches, n [numShapes]float64
	var entries, all float64
	add := func(s Shape, a answer) {
		pages[s] += float64(a.pages)
		matches[s] += float64(a.matches)
		n[s]++
		entries += float64(a.entries)
		all += float64(a.matches)
	}
	if b.model == nil {
		for c := range b.refs {
			for i, a := range b.refs[c] {
				add(b.gen.Reads[c][i].Shape, a)
			}
		}
	} else {
		for _, sp := range p.spans {
			if sp.Parent != 0 || sp.Stats == nil {
				continue // child spans, and writes
			}
			for s := Shape(0); s < numShapes; s++ {
				if s.String() == sp.Shape {
					add(s, answer{matches: sp.Stats.Matches, pages: sp.Stats.PagesRead, entries: sp.Stats.EntriesScanned})
				}
			}
		}
	}
	m := map[string]float64{}
	for s := Shape(0); s < numShapes; s++ {
		m["btree.pages_read_per_query."+s.String()] = ratio(pages[s], n[s])
		m["core.matches_per_query."+s.String()] = ratio(matches[s], n[s])
	}
	m["core.entries_per_match"] = ratio(entries, all)
	return m
}

// allocMetrics runs each shape's distinct queries sequentially in process
// and counts the allocations per query.
func (b *bench) allocMetrics(ctx context.Context) map[string]float64 {
	m := map[string]float64{}
	seen := map[string]bool{}
	var byShape [numShapes][]int // indexes into reader 0..n lists, flattened
	type ref struct{ c, i int }
	var refs []ref
	for c := range b.queries {
		for i, op := range b.gen.Reads[c] {
			if seen[op.Text] {
				continue
			}
			seen[op.Text] = true
			byShape[op.Shape] = append(byShape[op.Shape], len(refs))
			refs = append(refs, ref{c, i})
		}
	}
	var ms0, ms1 runtime.MemStats
	var bytes, count float64
	for s := Shape(0); s < numShapes; s++ {
		ids := byShape[s]
		if len(ids) > 200 {
			ids = ids[:200]
		}
		runtime.ReadMemStats(&ms0)
		for _, id := range ids {
			r := refs[id]
			b.db.Query(ctx, b.gen.Reads[r.c][r.i].Index, b.queries[r.c][r.i])
		}
		runtime.ReadMemStats(&ms1)
		m["core.allocs_per_query."+s.String()] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(len(ids)))
		bytes += float64(ms1.TotalAlloc - ms0.TotalAlloc)
		count += float64(len(ids))
	}
	m["core.alloc_bytes_per_query"] = ratio(bytes, count)
	return m
}

// checkpointMS times explicit checkpoints; the median of three.
func (b *bench) checkpointMS() (float64, error) {
	var t []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := b.db.Checkpoint(); err != nil {
			return 0, err
		}
		t = append(t, float64(time.Since(start))/1e6)
	}
	return median(t), nil
}

// walAppendMS times sequential Append + WaitDurable of a commit-sized
// record on a scratch log in dir: the floor under a durable commit.
func walAppendMS(dir string) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	path := filepath.Join(dir, "probe.wal")
	defer os.Remove(path)
	l, err := wal.Create(path, wal.Options{})
	if err != nil {
		return 0, err
	}
	rec := make([]byte, 160)
	var t []float64
	for i := 0; i < 100; i++ {
		start := time.Now()
		if err := l.WaitDurable(l.Append(rec)); err != nil {
			l.Close()
			return 0, err
		}
		t = append(t, float64(time.Since(start))/1e6)
	}
	return median(t), l.Close()
}

// pagerProbe times single-page DiskFile.Read and 16-page ReadBatch over
// every closed index file in dir, in microseconds per page.
func pagerProbe(dir string) (single, batched float64, err error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.uidx"))
	if err != nil || len(files) == 0 {
		return 0, 0, err
	}
	var singleT, batchT time.Duration
	var singleN, batchN int
	for _, path := range files {
		df, err := pager.OpenDiskFile(path)
		if err != nil {
			return 0, 0, err
		}
		buf := make([]byte, df.PageSize())
		var ids []pager.PageID // readable pages: freed ones return an error
		for id := 1; id < df.NumPages(); id++ {
			if df.Read(pager.PageID(id), buf) == nil {
				ids = append(ids, pager.PageID(id))
			}
		}
		start := time.Now()
		for _, id := range ids {
			df.Read(id, buf)
		}
		singleT += time.Since(start)
		singleN += len(ids)
		bufs := make([][]byte, 16)
		for i := range bufs {
			bufs[i] = make([]byte, df.PageSize())
		}
		start = time.Now()
		for lo := 0; lo < len(ids); lo += 16 {
			hi := min(len(ids), lo+16)
			df.ReadBatch(ids[lo:hi], bufs[:hi-lo])
		}
		batchT += time.Since(start)
		batchN += len(ids)
		if err := df.CloseDiscard(); err != nil { // read only: publish nothing
			return 0, 0, err
		}
	}
	return ratio(float64(singleT)/1e3, float64(singleN)), ratio(float64(batchT)/1e3, float64(batchN)), nil
}

// median of v (0 for none), sorting a copy.
func median(v []float64) float64 { return quantile(v, 0.5) }

func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[min(len(s)-1, int(q*float64(len(s))))]
}

// durQuantile is quantile over durations, in milliseconds.
func durQuantile(d []time.Duration, q float64) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x) / 1e6
	}
	return quantile(v, q)
}
