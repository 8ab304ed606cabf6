package main

// Compare mode: read two directories of result files (the parent commit's
// and the change's runs), and for every (metric, workload) print each
// side's median and quartiles, the pairs the change won, and a verdict
// judged against the bounds in BENCHMARK.json. Runs pair up by seed.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchmarkFile struct {
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

// extraBetter is the direction of the printed metrics BENCHMARK.json does
// not declare; they have no bound.
var extraBetter = map[string]string{
	"commit_ops_s": "higher", "commit_p50_ms": "lower", "commit_p99_ms": "lower",
	"failed_share": "lower", "space_bytes_per_object": "lower", "read_p999_ms": "lower",
}

// loadResults reads every result file in dir.
func loadResults(dir string) ([]result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	var out []result
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the exclusive
// method) for len(v) >= 2, and returns v[0] thrice for one value.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// verdict is choosing-metrics §8 and the simplicity review's no-regression
// rule: improved needs nine tenths of the pairs and a median difference
// beyond the parent's own spread; with a bound, a spread wider than the
// bound is unresolved unless every head run beats every base run.
func verdict(base, head map[int64]float64, better string, bound *float64) (string, int, int) {
	sign := 1.0 // positive deltas are improvements
	if better == "lower" {
		sign = -1
	}
	var bv, hv []float64
	pairs, won := 0, 0
	for seed, b := range base {
		bv = append(bv, b)
		if h, ok := head[seed]; ok {
			pairs++
			if sign*(h-b) > 0 {
				won++
			}
		}
	}
	lost := 0
	for seed, h := range head {
		hv = append(hv, h)
		if b, ok := base[seed]; ok && sign*(h-b) < 0 {
			lost++
		}
	}
	if len(bv) == 0 || len(hv) == 0 {
		return "unresolved", pairs, won
	}
	b1, bm, b3 := quartiles(bv)
	h1, hm, h3 := quartiles(hv)
	diff := sign * (hm - bm)
	spread := b3 - b1
	need := int(math.Ceil(0.9 * float64(pairs)))
	switch {
	case pairs == 0:
		return "unresolved", pairs, won
	case won >= need && diff > spread:
		return "improved", pairs, won
	case bound == nil:
		if lost >= need && -diff > spread {
			return "regressed", pairs, won
		}
		return "unchanged", pairs, won
	}
	allBetter := true
	for _, h := range hv {
		for _, b := range bv {
			allBetter = allBetter && sign*(h-b) > 0
		}
	}
	rel := func(lo, hi, m float64) float64 { return math.Abs(hi-lo) / math.Abs(m) }
	if (rel(b1, b3, bm) > *bound || rel(h1, h3, hm) > *bound) && !allBetter {
		return "unresolved", pairs, won
	}
	if bm != 0 && -diff/math.Abs(bm) > *bound {
		return "regressed", pairs, won
	}
	return "unchanged", pairs, won
}

func compareDirs(w io.Writer, benchPath, baseDir, headDir string) error {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	decl := map[string]declared{}
	for _, d := range append(bf.EndToEnd, bf.PerLayer...) {
		decl[d.Name] = d
	}
	base, err := loadResults(baseDir)
	if err != nil {
		return err
	}
	head, err := loadResults(headDir)
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	values := func(rs []result) map[key]map[int64]float64 {
		out := map[key]map[int64]float64{}
		for _, r := range rs {
			for _, set := range []map[string]metric{r.Metrics, r.Extra} {
				for name, m := range set {
					k := key{r.Workload, name}
					if out[k] == nil {
						out[k] = map[int64]float64{}
					}
					out[k][r.Seed] = m.Value
				}
			}
		}
		return out
	}
	bv, hv := values(base), values(head)
	var keys []key
	for k := range bv {
		if _, ok := hv[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-14s %-36s %12s %12s %12s %12s %12s %12s %7s %s\n",
		"workload", "metric", "base_q1", "base_med", "base_q3", "head_q1", "head_med", "head_q3", "won", "verdict")
	for _, k := range keys {
		d, ok := decl[k.metric]
		if !ok {
			better, known := extraBetter[k.metric]
			if !known {
				continue // self-time breakdowns: read from the spans
			}
			d = declared{Name: k.metric, Better: better}
		}
		var b, h []float64
		for _, v := range bv[k] {
			b = append(b, v)
		}
		for _, v := range hv[k] {
			h = append(h, v)
		}
		b1, bm, b3 := quartiles(b)
		h1, hm, h3 := quartiles(h)
		v, pairs, won := verdict(bv[k], hv[k], d.Better, d.Bound)
		fmt.Fprintf(w, "%-14s %-36s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %3d/%-3d %s\n",
			k.workload, k.metric, b1, bm, b3, h1, hm, h3, won, pairs, v)
	}
	return nil
}
