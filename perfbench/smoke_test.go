package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestBenchmarkFileMatchesProgram checks that BENCHMARK.json declares
// exactly the metrics the program reports, with the same units.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, decl []declared, want []struct{ name, unit string }) {
		if len(decl) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(decl), len(want))
			return
		}
		for i, d := range decl {
			if d.Name != want[i].name || d.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, d.Name, d.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// TestSmokePipeline runs the whole pipeline at smoke scale: generator,
// every workload untraced and traced, the answer checks, and compare mode.
func TestSmokePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	ctx := context.Background()
	base, head := t.TempDir(), t.TempDir()
	for _, wl := range []string{"hot_read", "cold_scan", "durable_mixed"} {
		var traced [2]*result
		for i, dir := range []string{base, head} {
			for _, trace := range []bool{false, true} {
				res, err := measure(ctx, wl, 4, smokeScale, time.Second, trace, filepath.Join(dir, "out"))
				if err != nil {
					t.Fatalf("%s trace=%v: %v", wl, trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d %v", wl, trace, res.Correct, res.Failed, res.Attempted, res.Problems)
				}
				want := endToEnd
				if trace {
					want = perLayer
					traced[i] = res
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s trace=%v: %d metrics, want %d", wl, trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("%s trace=%v: metric %s missing or not in %s", wl, trace, m.name, m.unit)
					}
					if !trace && got.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v", wl, m.name, got.Value)
					}
				}
				if err := writeJSON(filepath.Join(dir, wl+boolName(trace)+".json"), res); err != nil {
					t.Fatal(err)
				}
			}
		}
		// The paper's logical counts and the answers repeat exactly for a
		// seed, where no writer changes the data under the readers.
		for name, m := range traced[0].Metrics {
			if strings.HasPrefix(name, "btree.pages_read_per_query.") || strings.HasPrefix(name, "core.matches_per_query.") {
				if other := traced[1].Metrics[name].Value; m.Value == 0 || (other != m.Value && !specs[wl].writer) {
					t.Errorf("%s: %s = %v, then %v", wl, name, m.Value, other)
				}
			}
		}
		if traced[0].Metrics["wal.checkpoints"].Value == 0 && wl == "durable_mixed" {
			t.Errorf("durable_mixed: no WAL checkpoint during the traced phase")
		}
	}
	var out bytes.Buffer
	if err := compareDirs(&out, filepath.Join("..", "BENCHMARK.json"), base, head); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hot_read", "cold_scan", "durable_mixed", "read_p50_ms", "core.query_us.range", "commit_p99_ms"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %s:\n%s", want, out.String())
		}
	}
}

func boolName(trace bool) string {
	if trace {
		return "-trace"
	}
	return ""
}

// TestWrongAnswerFails checks that a reader answer that differs from the
// reference fails the run.
func TestWrongAnswerFails(t *testing.T) {
	ctx := context.Background()
	b, err := setup(ctx, "cold_scan", genInput{seed: 2, scale: smokeScale}, filepath.Join(t.TempDir(), "data"))
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	b.refs[0][0].hash++
	if p := b.run(ctx, 200*time.Millisecond, false); p.wrong == 0 || p.failed == 0 {
		t.Fatalf("a wrong answer went unnoticed: wrong=%d failed=%d", p.wrong, p.failed)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	seeds := func(v ...float64) map[int64]float64 {
		m := map[int64]float64{}
		for i, x := range v {
			m[int64(i)] = x
		}
		return m
	}
	base := seeds(10, 10.1, 9.9, 10.05, 9.95, 10, 10.02, 9.98, 10.01, 9.99)
	for _, c := range []struct {
		head map[int64]float64
		want string
	}{
		{seeds(8, 8.1, 7.9, 8.05, 7.95, 8, 8.02, 7.98, 8.01, 7.99), "improved"},
		{seeds(12, 12.1, 11.9, 12.05, 11.95, 12, 12.02, 11.98, 12.01, 11.99), "regressed"},
		{seeds(10.01, 10.1, 9.9, 10.05, 9.95, 10, 10.02, 9.98, 10.01, 9.99), "unchanged"},
		{seeds(5, 15, 6, 14, 7, 13, 8, 12, 9, 11), "unresolved"},
	} {
		if got, _, _ := verdict(base, c.head, "lower", &bound); got != c.want {
			t.Errorf("verdict = %s, want %s", got, c.want)
		}
	}
}

// TestDurableCheckSeesLostWrites checks that the post-run state check
// notices a database that disagrees with the acknowledged writes.
func TestDurableCheckSeesLostWrites(t *testing.T) {
	ctx := context.Background()
	b, err := setup(ctx, "durable_mixed", genInput{seed: 3, scale: smokeScale, writes: 100}, filepath.Join(t.TempDir(), "data"))
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	if bad := b.checkState(ctx, b.db); len(bad) > 0 {
		t.Fatalf("fresh database disagrees with the model: %v", bad)
	}
	b.model.vehicles[0].color = "not a color"
	b.model.own[0].deleted = true
	if bad := b.checkState(ctx, b.db); len(bad) < 2 {
		t.Fatalf("lost writes went unnoticed: %v", bad)
	}
}

// TestFailedWriteFailsRun checks that writes that fail make the run
// incorrect, and that the state check still runs on everything the failed
// writes did not touch.
func TestFailedWriteFailsRun(t *testing.T) {
	ctx := context.Background()
	b, err := setup(ctx, "durable_mixed", genInput{seed: 6, scale: smokeScale, writes: 400}, filepath.Join(t.TempDir(), "data"))
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	b.writer.Close() // every write from here on fails
	res := &result{Correct: true}
	b.check(ctx, res, b.run(ctx, 300*time.Millisecond, false))
	if res.Correct || res.Failed == 0 || b.model.failed() == 0 {
		t.Fatalf("failed writes went unnoticed: correct=%v failed=%d problems=%v", res.Correct, res.Failed, res.Problems)
	}
	if len(b.model.unknown) == 0 || b.model.lostInserts == 0 {
		t.Fatalf("no object marked unknown: %d unknown, %d lost inserts", len(b.model.unknown), b.model.lostInserts)
	}
	if bad := b.checkState(ctx, b.db); len(bad) > 0 {
		t.Fatalf("untouched objects disagree with the model: %v", bad)
	}
	for i := range b.model.vehicles {
		if !b.model.unknown[b.vehicles[i]] {
			b.model.vehicles[i].color = "not a color"
			break
		}
	}
	if bad := b.checkState(ctx, b.db); len(bad) == 0 {
		t.Fatal("a lost write beside failed ones went unnoticed")
	}
}
