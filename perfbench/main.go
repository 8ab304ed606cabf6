// Command perfbench is the repository's benchmark: it generates a seeded
// database and operation stream, drives one workload against the engine
// from this one process, checks every answer, and prints each metric by
// name and unit. The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// holding the end-to-end metrics, or with -trace 1 the per-layer metrics of
// a separate traced run. Run it from the repository root through
// perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload hot_read --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --compare BASE_DIR HEAD_DIR
//
// Every run also writes a result file to .bench_build/perfbench/results;
// compare mode reads two such directories, from the parent commit and the
// change, and judges each metric against the bounds in BENCHMARK.json.
//
// Workloads: hot_read, cold_scan, durable_mixed (see specs in setup.go and
// BENCHMARK.json for why each exists).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	uindex "repro"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run reports; it is also the result file that
// compare mode reads.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   int               `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Extra holds metrics printed but not declared in BENCHMARK.json
	// (they exist on only some workloads, are zero when healthy, or are
	// tail latencies that move with the host's CPU steal by more than any
	// bound allows), with their sample counts.
	Extra    map[string]metric `json:"extra,omitempty"`
	Samples  map[string]int    `json:"samples,omitempty"`
	Absent   map[string]string `json:"absent,omitempty"`
	Problems []string          `json:"problems,omitempty"`
	Env      env               `json:"env"`
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		wl      = fs.String("workload", "", "hot_read, cold_scan or durable_mixed")
		seed    = fs.Int64("seed", 1, "workload seed")
		seconds = fs.Int("seconds", 30, "length of the measured phase")
		trace   = fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		out     = fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for data, spans and result files")
		compare = fs.Bool("compare", false, "compare two directories of result files: --compare BASE HEAD")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: --compare needs two directories of result files")
			return 2
		}
		if err := compareDirs(os.Stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if _, ok := specs[*wl]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	res, err := measure(context.Background(), *wl, *seed, fullScale, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.Seconds = *seconds
	report(os.Stdout, res)
	path := filepath.Join(*out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", res.Workload, res.Seed, *trace))
	if err := writeJSON(path, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing result file:", err)
		return 1
	}
	last, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Println(string(last))
	if !res.Correct {
		return 1
	}
	return 0
}

// Declared metrics, in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"heap_mb", "MiB"}, {"read_ops_s", "ops/s"},
	{"read_p50_ms", "ms"},
	{"exact_p50_ms", "ms"}, {"path_p50_ms", "ms"}, {"range_p50_ms", "ms"}, {"parscan_p50_ms", "ms"},
}

var perLayer = func() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"server.busy_ms", "ms"}, {"server.wire_ms", "ms"}, {"server.bytes_out_per_read", "B"}, {"server.rejected", "count"},
		{"querylang.parse_us", "us"},
	}
	for _, s := range shapeNames {
		out = append(out, struct{ name, unit string }{"core.query_us." + s, "us"})
	}
	for _, s := range shapeNames {
		out = append(out, struct{ name, unit string }{"core.allocs_per_query." + s, "count"})
	}
	out = append(out, []struct{ name, unit string }{
		{"core.alloc_bytes_per_query", "B"}, {"core.entries_per_match", "ratio"},
	}...)
	for _, s := range shapeNames {
		out = append(out, struct{ name, unit string }{"core.matches_per_query." + s, "count"})
	}
	out = append(out, struct{ name, unit string }{"core.shard_write_skew", "ratio"})
	for _, s := range shapeNames {
		out = append(out, struct{ name, unit string }{"btree.pages_read_per_query." + s, "count"})
	}
	return append(out, []struct{ name, unit string }{
		{"btree.node_cache_hit_ratio", "ratio"}, {"btree.bytes_decoded_per_query", "B"},
		{"bufferpool.hit_ratio", "ratio"}, {"bufferpool.misses_per_query", "count"},
		{"bufferpool.evictions_per_query", "count"}, {"bufferpool.prefetch_pages_per_query", "count"},
		{"bufferpool.prefetch_useful_ratio", "ratio"},
		{"pager.physical_reads_per_query", "count"}, {"pager.pages_per_batch_read", "count"},
		{"pager.read_us_per_page", "us"}, {"pager.batch_read_us_per_page", "us"},
		{"pager.write_bytes_per_user_byte", "ratio"},
		{"wal.fsyncs_per_commit", "ratio"}, {"wal.records_per_group_commit", "count"},
		{"wal.append_durable_ms", "ms"}, {"wal.lag_bytes_max", "B"}, {"wal.checkpoints", "count"},
		{"checkpoint.ms", "ms"},
		{"runtime.gc_cpu_fraction", "ratio"}, {"runtime.gc_per_kop", "count"},
		{"loadgen.late_p99_ms", "ms"}, {"trace.overhead", "ratio"},
	}...)
}()

// absentOn names, per workload, the per-layer metrics whose layer does no
// work there; they read 0 by construction.
func absentOn(wl string) map[string]string {
	a := map[string]string{}
	s := specs[wl]
	if !s.served {
		for _, n := range []string{"server.busy_ms", "server.wire_ms", "server.bytes_out_per_read", "server.rejected"} {
			a[n] = "embedded: no server"
		}
	}
	if s.opts.PoolPages == 0 {
		for _, n := range []string{"bufferpool.hit_ratio", "bufferpool.misses_per_query", "bufferpool.evictions_per_query",
			"bufferpool.prefetch_pages_per_query", "bufferpool.prefetch_useful_ratio",
			"pager.physical_reads_per_query", "pager.pages_per_batch_read"} {
			a[n] = "no buffer pool"
		}
		a["pager.read_us_per_page"] = "probed on cold_scan's closed index file only"
		a["pager.batch_read_us_per_page"] = "probed on cold_scan's closed index file only"
	} else if s.opts.NoPrefetch {
		for _, n := range []string{"bufferpool.prefetch_pages_per_query", "bufferpool.prefetch_useful_ratio",
			"pager.pages_per_batch_read"} {
			a[n] = "prefetch off until the pinned-frames defect is fixed"
		}
	}
	if !s.writer {
		for _, n := range []string{"pager.write_bytes_per_user_byte", "wal.fsyncs_per_commit", "wal.records_per_group_commit",
			"wal.lag_bytes_max", "wal.checkpoints", "core.shard_write_skew", "loadgen.late_p99_ms"} {
			a[n] = "read only: no writes"
		}
	}
	return a
}

// measure runs one workload: set up, measure, check, and with trace a
// second, traced phase plus the layer probes.
func measure(ctx context.Context, wl string, seed int64, sc Scale, d time.Duration, trace bool, out string) (*result, error) {
	res := &result{Workload: wl, Seed: seed, Trace: trace, Correct: true,
		Metrics: map[string]metric{}, Extra: map[string]metric{}, Samples: map[string]int{}}
	phases := 1
	if trace {
		phases = 2
	}
	in := genInput{seed: seed, scale: sc, writes: phases*int(d.Seconds()+1)*writeRate + writeRate}
	dataDir := filepath.Join(out, "data", wl)
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataDir)
	setups := 3
	if trace {
		setups = 1
	}
	b, setupS, err := setupRepeated(ctx, wl, in, dataDir, setups)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer b.close()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.Env = environment(b, seed, dataDir)

	t0, s0 := cpuTicks()
	p := b.run(ctx, d, false)
	t1, s1 := cpuTicks()
	res.Env.CPUSteal = ratio(s1-s0, t1-t0)
	var tp *phase
	var layer map[string]float64
	if trace {
		tp, layer = b.tracedPhase(ctx, d)
		layer["trace.overhead"] = 1 - ratio(float64(len(tp.reads)), float64(len(p.reads)))
	}
	b.check(ctx, res, p, tp)
	if trace {
		if layer["checkpoint.ms"], err = b.checkpointMS(); err != nil {
			return nil, err
		}
		if layer["wal.append_durable_ms"], err = walAppendMS(filepath.Join(out, "data", "walprobe")); err != nil {
			return nil, err
		}
		for k, v := range b.allocMetrics(ctx) {
			layer[k] = v
		}
	}
	if err := b.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	var space float64
	if b.spec.disk {
		n, err := dirBytes(dataDir)
		if err != nil {
			return nil, err
		}
		space = float64(n) / float64(b.liveObjects())
	}
	if trace {
		layer["pager.read_us_per_page"], layer["pager.batch_read_us_per_page"] = 0, 0
		if b.spec.opts.PoolPages > 0 {
			if layer["pager.read_us_per_page"], layer["pager.batch_read_us_per_page"], err = pagerProbe(dataDir); err != nil {
				return nil, err
			}
		}
	}
	if b.model != nil {
		b.reopenCheck(ctx, res)
	}
	if !trace {
		fill(res, p, setupS, float64(ms.HeapInuse)/(1<<20), space)
		for _, m := range endToEnd {
			if _, ok := res.Metrics[m.name]; !ok {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", m.name)
			}
		}
		return res, nil
	}
	for _, m := range perLayer {
		v, ok := layer[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	res.Absent = absentOn(wl)
	if err := writeSpans(filepath.Join(out, "spans", fmt.Sprintf("%s-seed%d.jsonl", wl, seed)), tp.spans); err != nil {
		return nil, err
	}
	for name, self := range selfTimes(tp.spans) {
		res.Extra["self_us."+name] = metric{float64(self) / 1e3, "us"}
	}
	return res, nil
}

// check folds the measured phases into res and, where a writer ran, checks
// the database against the acknowledged writes. A wrong answer, a failed
// write or a state that disagrees makes the run incorrect; a read that
// returned an error counts as failed only.
func (b *bench) check(ctx context.Context, res *result, phases ...*phase) {
	for _, q := range phases {
		if q == nil {
			continue
		}
		res.Attempted += q.readsAttempted + q.writesAttempted
		res.Failed += q.failed
		res.Problems = append(res.Problems, q.problems...)
		if q.wrong > 0 {
			res.Correct = false
		}
	}
	if b.model == nil {
		return
	}
	if n := b.model.failed(); n > 0 {
		res.Correct = false
		res.Problems = append(res.Problems, fmt.Sprintf("%d writes failed; the state check skips what they touched", n))
	}
	if bad := b.checkState(ctx, b.db); len(bad) > 0 {
		res.fail("after the run", bad)
	}
}

func (r *result) fail(when string, bad []string) {
	r.Correct = false
	r.Failed++
	for _, s := range bad {
		r.Problems = append(r.Problems, when+": "+s)
	}
}

// reopenCheck recovers durable_mixed's database with uindex.Open and checks
// the acknowledged writes again.
func (b *bench) reopenCheck(ctx context.Context, res *result) {
	db, err := uindex.Open(b.dir, b.spec.opts)
	if err != nil {
		res.fail("reopen", []string{err.Error()})
		return
	}
	if bad := b.checkState(ctx, db); len(bad) > 0 {
		res.fail("after reopen", bad)
	}
	if err := db.Close(); err != nil {
		res.fail("close after reopen", []string{err.Error()})
	}
}

// tracedPhase runs the second, traced phase and derives the per-layer
// metrics from its spans and the counters around it.
func (b *bench) tracedPhase(ctx context.Context, d time.Duration) (*phase, map[string]float64) {
	before := b.snap()
	var lagMax atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if lag := b.db.Metrics().WALLagBytes; lag > lagMax.Load() {
					lagMax.Store(lag)
				}
			}
		}
	}()
	p := b.run(ctx, d, true)
	close(stop)
	wg.Wait()
	after := b.snap()
	m := b.layerMetrics(p, before, after, lagMax.Load())
	for k, v := range b.logicalMetrics(p) {
		m[k] = v
	}
	return p, m
}

// fill computes the end-to-end metrics of an untraced phase.
func fill(res *result, p *phase, setupS, heapMB, space float64) {
	secs := p.elapsed.Seconds()
	var all []time.Duration
	var by [numShapes][]time.Duration
	for _, r := range p.reads {
		all = append(all, r.d)
		by[r.shape] = append(by[r.shape], r.d)
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	put("setup_s", "s", setupS)
	put("heap_mb", "MiB", heapMB)
	put("read_ops_s", "ops/s", float64(len(all))/secs)
	put("read_p50_ms", "ms", durQuantile(all, 0.5))
	res.Extra["read_p99_ms"] = metric{durQuantile(all, 0.99), "ms"}
	res.Extra["read_p999_ms"] = metric{durQuantile(all, 0.999), "ms"}
	res.Samples["read"] = len(all)
	for s := Shape(0); s < numShapes; s++ {
		put(s.String()+"_p50_ms", "ms", durQuantile(by[s], 0.5))
		res.Samples[s.String()] = len(by[s])
	}
	res.Extra["failed_share"] = metric{ratio(float64(res.Failed), float64(res.Attempted)), "ratio"}
	if len(p.commits) > 0 {
		res.Extra["commit_ops_s"] = metric{float64(len(p.commits)) / secs, "commits/s"}
		res.Extra["commit_p50_ms"] = metric{durQuantile(p.commits, 0.5), "ms"}
		res.Extra["commit_p99_ms"] = metric{durQuantile(p.commits, 0.99), "ms"}
		res.Samples["commit"] = len(p.commits)
		res.Extra["loadgen.late_p99_ms"] = metric{durQuantile(p.late, 0.99), "ms"}
	}
	if space > 0 {
		res.Extra["space_bytes_per_object"] = metric{space, "B"}
	}
}

// report prints every metric by name and unit, then the checks.
func report(w io.Writer, r *result) {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d: %s metrics\n", r.Workload, r.Seed, r.Seconds, kind)
	env, _ := json.Marshal(r.Env)
	fmt.Fprintf(w, "env %s\n", env)
	print := func(m map[string]metric) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			line := fmt.Sprintf("  %-40s %14.6g %s", n, m[n].Value, m[n].Unit)
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(n, "_p50_ms"), "_p99_ms"), "_p999_ms")
			if c, ok := r.Samples[base]; ok && base != n {
				line += fmt.Sprintf(" (n=%d)", c)
			}
			if why, ok := r.Absent[n]; ok {
				line += " (absent: " + why + ")"
			}
			fmt.Fprintln(w, line)
		}
	}
	print(r.Metrics)
	print(r.Extra)
	fmt.Fprintf(w, "checks: correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintln(w, "  problem:", p)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
