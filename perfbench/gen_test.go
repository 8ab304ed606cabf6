package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestSameSeedSameInputs(t *testing.T) {
	for wl := range specs {
		a, err := Generate(wl, 7, smokeScale, 500)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Generate(wl, 7, smokeScale, 500)
		c, _ := Generate(wl, 8, smokeScale, 500)
		if a.Text() != b.Text() {
			t.Errorf("%s: the same seed gave different inputs", wl)
		}
		if a.Text() == c.Text() {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", wl)
		}
	}
}

func within1pp(t *testing.T, what string, got, total, wantPct int) {
	t.Helper()
	if share := 100 * float64(got) / float64(total); math.Abs(share-float64(wantPct)) > 1 {
		t.Errorf("%s: %.2f%%, want %d%% +- 1", what, share, wantPct)
	}
}

func TestMixShares(t *testing.T) {
	for wl, mix := range readMix {
		g, err := Generate(wl, 3, fullScale, 2000)
		if err != nil {
			t.Fatal(err)
		}
		for c, reads := range g.Reads {
			var n [numShapes]int
			for _, r := range reads {
				n[r.Shape]++
			}
			for s := Shape(0); s < numShapes; s++ {
				within1pp(t, wl+" reader "+string(rune('0'+c))+" "+s.String(), n[s], len(reads), mix[s])
			}
		}
		if wl != "durable_mixed" {
			continue
		}
		var n [numWriteKinds]int
		for _, w := range g.Writes {
			n[w.Kind]++
		}
		for k := WriteKind(0); k < numWriteKinds; k++ {
			within1pp(t, "write "+k.String(), n[k], len(g.Writes), writeMix[k])
		}
	}
}

// TestWriterDependencies checks that every write waits for the earlier
// operation on its object, and that deletes only hit the writer's own,
// earlier inserts, each once.
func TestWriterDependencies(t *testing.T) {
	g, err := Generate("durable_mixed", 5, fullScale, 3000)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]WriteOp(nil), g.Warmup...), g.Writes...)
	insertedBy := map[int]int{}
	deleted := map[int]bool{}
	for i, op := range all {
		if op.Dep >= i {
			t.Fatalf("op %d depends on later op %d", i, op.Dep)
		}
		for j := range op.Inserts {
			insertedBy[op.FirstOwn+j] = i
		}
		if op.Kind == WDelete {
			if deleted[op.Own] {
				t.Fatalf("op %d deletes own insert %d twice", i, op.Own)
			}
			deleted[op.Own] = true
			if by, ok := insertedBy[op.Own]; !ok || by != op.Dep {
				t.Fatalf("op %d deletes own insert %d without waiting for its insert", i, op.Own)
			}
		}
	}
}

// TestZipfSkew checks that value and class popularity is skewed in
// hot_read and uniform in cold_scan.
func TestZipfSkew(t *testing.T) {
	top := func(wl string) (colorShare, classShare float64) {
		g, err := Generate(wl, 9, fullScale, 0)
		if err != nil {
			t.Fatal(err)
		}
		colors, classes := map[string]int{}, map[string]int{}
		n := 0
		for _, reads := range g.Reads {
			for _, r := range reads {
				if r.Shape != ShapeExact {
					continue
				}
				// "(Color=<color>, <Class>*)"
				f := strings.FieldsFunc(r.Text, func(c rune) bool { return strings.ContainsRune("(=, *)", c) })
				colors[f[1]]++
				classes[f[2]]++
				n++
			}
		}
		maxOf := func(m map[string]int) float64 {
			best := 0
			for _, v := range m {
				best = max(best, v)
			}
			return float64(best) / float64(n)
		}
		return maxOf(colors), maxOf(classes)
	}
	uniformColor, uniformClass := 1/float64(len(workload.Colors)), 1/float64(len(vehicleClasses))
	hc, hk := top("hot_read")
	if hc < 5*uniformColor || hk < 3*uniformClass {
		t.Errorf("hot_read: top color %.3f, top class %.3f: not zipf-skewed", hc, hk)
	}
	cc, ck := top("cold_scan")
	if cc > uniformColor+0.01 || ck > uniformClass+0.01 {
		t.Errorf("cold_scan: top color %.3f, top class %.3f: not uniform", cc, ck)
	}
}
