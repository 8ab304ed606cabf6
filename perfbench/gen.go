package main

// Seeded workload generator. Everything the program under test receives —
// the objects loaded at setup, the textual queries the readers send and the
// mutations the writer commits — is produced here from the seed alone, so
// the same seed gives byte-identical inputs (Gen.Text).

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/workload"
)

// Shape is a read query's shape; every shape has its own latency metric.
type Shape int

const (
	ShapeExact   Shape = iota // Color = v on a class subtree
	ShapePath                 // Age = a through the REF path, on a vehicle subtree
	ShapeRange                // 4-color range on a class subtree
	ShapeParscan              // color set x two class subtrees
	numShapes
)

var shapeNames = [numShapes]string{"exact", "path", "range", "parscan"}

func (s Shape) String() string { return shapeNames[s] }

// Index names and the schema paths they cover.
const (
	colorIndex = "color" // class-hierarchy index Vehicle.Color
	ageIndex   = "age"   // 2-REF path index Vehicle.ManufacturedBy.President.Age
)

// ReadOp is one textual query as a client sends it.
type ReadOp struct {
	Shape Shape
	Index string
	Text  string
}

// WriteKind is one kind of the durable writer's mutations.
type WriteKind int

const (
	WInsert       WriteKind = iota // Insert Vehicle
	WSetColor                      // Set Vehicle.Color
	WSetMaker                      // Set Vehicle.ManufacturedBy (re-keys the path index)
	WDelete                        // Delete one of the writer's own inserts
	WBatch                         // ApplyBatch of batchInserts inserts
	WSetPresident                  // Set Company.President (re-keys every vehicle of the company)
	numWriteKinds
)

var writeKindNames = [numWriteKinds]string{"insert", "set_color", "set_maker", "delete", "batch", "set_president"}

func (k WriteKind) String() string { return writeKindNames[k] }

// writeMix is the writer's share of each kind, in percent, per block of
// 100 operations.
var writeMix = [numWriteKinds]int{40, 30, 15, 9, 5, 1}

const batchInserts = 8

// NewVehicle is one vehicle a writer inserts.
type NewVehicle struct {
	Class, Name, Color string
	Maker              int // company ordinal
}

// WriteOp is one mutation of the writer. Vehicle is a loaded-vehicle
// ordinal (Set), Own an own-insert ordinal (Delete), Company a company
// ordinal (SetPresident); Dep is the index of the earlier operation on the
// same object that must be acknowledged before this one is sent (-1: none),
// which keeps the final state of every object well defined under
// pipelining.
type WriteOp struct {
	Kind      WriteKind
	Inserts   []NewVehicle // WInsert (one) and WBatch (batchInserts)
	FirstOwn  int          // own-insert ordinal of Inserts[0]
	Vehicle   int
	Own       int
	Company   int
	Color     string
	Maker     int
	President int // employee ordinal
	Dep       int
}

// Scale sizes the generated database and operation lists.
type Scale struct {
	Vehicles, Employees, Companies int
	ReadsPerClient                 int // cyclic read list per reader, a multiple of 100
	WarmupWrites                   int // closed-loop inserts at setup (own inserts)
}

// fullScale is the benchmark's scale: about 30k vehicles, 3k employees and
// 1.5k companies, so the two indexes span a few hundred pages each.
var fullScale = Scale{Vehicles: 30000, Employees: 3000, Companies: 1500, ReadsPerClient: 1000, WarmupWrites: 64}

// smokeScale runs the same pipeline in seconds.
var smokeScale = Scale{Vehicles: 1500, Employees: 150, Companies: 75, ReadsPerClient: 100, WarmupWrites: 16}

// Employee and Company are loaded at setup, with the NewVehicle list.
type (
	Employee struct{ Age uint64 }
	Company  struct {
		Class, Name string
		President   int
	}
)

// Gen is one workload's generated input.
type Gen struct {
	Workload  string
	Seed      int64
	Scale     Scale
	Employees []Employee
	Companies []Company
	Vehicles  []NewVehicle
	// Reads holds one cyclic query list per reader.
	Reads [][]ReadOp
	// Warmup and Writes are durable_mixed's writer stream: Warmup is sent
	// closed loop during setup, Writes open loop during the measured run.
	Warmup []WriteOp
	Writes []WriteOp
}

var companyClasses = []string{"Company", "AutoCompany", "JapaneseAutoCompany", "TruckCompany"}

// vehicleClasses are the Vehicle subtree roots queries restrict to, in a
// fixed popularity order: the zipf rank of a class never depends on the
// seed, so runs with different seeds do comparable work.
var vehicleClasses = []string{
	"Automobile", "CompactAutomobile", "Truck", "ForeignAuto", "ServiceAuto",
	"Bus", "HeavyTruck", "LightTruck", "Vehicle", "PassengerBus",
	"MilitaryBus", "TouristBus",
}

// readMix is each workload's query mix in percent, by shape.
var readMix = map[string][numShapes]int{
	"hot_read":      {40, 30, 10, 20},
	"cold_scan":     {10, 20, 40, 30},
	"durable_mixed": {40, 30, 10, 20},
}

// zipfS is the popularity skew of values and classes in the hot mixes.
const zipfS = 1.1

const minAge, numAges = 25, 46

// Generate builds the inputs of one workload. writes is the number of
// open-loop writer operations to generate (durable_mixed only).
func Generate(wl string, seed int64, sc Scale, writes int) (*Gen, error) {
	mix, ok := readMix[wl]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", wl)
	}
	g := &Gen{Workload: wl, Seed: seed, Scale: sc}
	rng := rand.New(rand.NewSource(seed))
	// The data is drawn by exact composition too (see ranks): every age,
	// color, maker and class has the same number of objects whatever the
	// seed, so a query's answer size depends on its values, not the seed.
	byAge := make([][]int, numAges)
	for i, a := range ranks(rng, sc.Employees, numAges, false) {
		g.Employees = append(g.Employees, Employee{Age: uint64(minAge + a)})
		byAge[a] = append(byAge[a], i)
	}
	for i, a := range ranks(rng, sc.Companies, numAges, false) {
		g.Companies = append(g.Companies, Company{
			Class:     companyClasses[rng.Intn(len(companyClasses))],
			Name:      fmt.Sprintf("Co%05d", i),
			President: byAge[a][rng.Intn(len(byAge[a]))],
		})
	}
	shares := make([]float64, len(workload.VehicleClasses))
	for i, vc := range workload.VehicleClasses {
		shares[i] = vc.Share
	}
	classes := compose(rng, sc.Vehicles, shares)
	colors := ranks(rng, sc.Vehicles, len(workload.Colors), false)
	makers := ranks(rng, sc.Vehicles, sc.Companies, false)
	for i := 0; i < sc.Vehicles; i++ {
		g.Vehicles = append(g.Vehicles, NewVehicle{
			Class: workload.VehicleClasses[classes[i]].Name,
			Name:  fmt.Sprintf("V%06d", i),
			Color: workload.Colors[colors[i]],
			Maker: makers[i],
		})
	}
	zipf := wl != "cold_scan"
	for c := 0; c < specs[wl].readers; c++ {
		g.Reads = append(g.Reads, genReads(rand.New(rand.NewSource(seed*31+int64(c)+1)), mix, sc.ReadsPerClient, zipf))
	}
	if wl == "durable_mixed" {
		g.genWrites(rand.New(rand.NewSource(seed*31+101)), writes)
	}
	return g, nil
}

func (g *Gen) newVehicle(rng *rand.Rand, name string) NewVehicle {
	r := rng.Float64()
	class := workload.VehicleClasses[len(workload.VehicleClasses)-1].Name
	for _, vc := range workload.VehicleClasses {
		if r < vc.Share {
			class = vc.Name
			break
		}
		r -= vc.Share
	}
	return NewVehicle{
		Class: class,
		Name:  name,
		Color: workload.Colors[rng.Intn(len(workload.Colors))],
		Maker: rng.Intn(len(g.Companies)),
	}
}

// ranks returns n ranks of 0..k-1 whose counts follow the popularity
// (zipf with zipfS, or uniform) as closely as n allows, in seeded order.
// Drawing the exact composition, not a sample of it, keeps the work of a
// list the same from seed to seed; the seed decides order and pairing.
func ranks(rng *rand.Rand, n, k int, skewed bool) []int {
	w := make([]float64, k)
	for i := range w {
		w[i] = 1
		if skewed {
			w[i] = math.Pow(float64(i+1), -zipfS)
		}
	}
	return compose(rng, n, w)
}

// compose returns n values of 0..len(w)-1 whose counts are proportional to
// the weights w as closely as n allows (largest remainders), in seeded order.
func compose(rng *rand.Rand, n int, w []float64) []int {
	k := len(w)
	var sum float64
	for _, x := range w {
		sum += x
	}
	counts := make([]int, k)
	rem := make([]float64, k)
	total := 0
	for i := range w {
		exact := float64(n) * w[i] / sum
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		total += counts[i]
	}
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for j := 0; j < n-total; j++ {
		counts[order[j]]++
	}
	out := make([]int, 0, n)
	for i, c := range counts {
		for ; c > 0; c-- {
			out = append(out, i)
		}
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// distinctRanks returns m rank lists of length n (see ranks) in which row i
// holds m different ranks, by swapping clashing entries within a list.
func distinctRanks(rng *rand.Rand, n, k, m int, skewed bool) [][]int {
	cols := make([][]int, m)
	for c := range cols {
		cols[c] = ranks(rng, n, k, skewed)
	}
	fits := func(c, row, v int) bool {
		for d := 0; d < c; d++ {
			if cols[d][row] == v {
				return false
			}
		}
		return true
	}
	for c := 1; c < m; c++ {
		for i := 0; i < n; i++ {
			for try := 0; try < 10000 && !fits(c, i, cols[c][i]); try++ {
				if j := rng.Intn(n); fits(c, i, cols[c][j]) && fits(c, j, cols[c][i]) {
					cols[c][i], cols[c][j] = cols[c][j], cols[c][i]
				}
			}
		}
	}
	return cols
}

// genReads builds one client's read list with exactly the mix's share of
// each shape, in seeded order.
func genReads(rng *rand.Rand, mix [numShapes]int, n int, skewed bool) []ReadOp {
	var shapes []Shape
	for s := Shape(0); s < numShapes; s++ {
		for i := 0; i < mix[s]*n/100; i++ {
			shapes = append(shapes, s)
		}
	}
	rng.Shuffle(len(shapes), func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })
	var count [numShapes]int
	for _, s := range shapes {
		count[s]++
	}
	nColors, nClasses := len(workload.Colors), len(vehicleClasses)
	exact := ranks(rng, count[ShapeExact], nColors, skewed)
	exactClass := ranks(rng, count[ShapeExact], nClasses, skewed)
	ages := ranks(rng, count[ShapePath], numAges, skewed)
	pathClass := ranks(rng, count[ShapePath], nClasses, skewed)
	lows := ranks(rng, count[ShapeRange], nColors-3, skewed)
	rangeClass := ranks(rng, count[ShapeRange], nClasses, skewed)
	sets := distinctRanks(rng, count[ShapeParscan], nColors, 3, skewed)
	pairs := distinctRanks(rng, count[ShapeParscan], nClasses, 2, skewed)
	var next [numShapes]int
	out := make([]ReadOp, len(shapes))
	for i, s := range shapes {
		j := next[s]
		next[s]++
		var op ReadOp
		switch s {
		case ShapeExact:
			op = ReadOp{s, colorIndex, fmt.Sprintf("(Color=%s, %s*)", workload.Colors[exact[j]], vehicleClasses[exactClass[j]])}
		case ShapePath:
			op = ReadOp{s, ageIndex, fmt.Sprintf("(Age=%d, ?, ?, %s*)", minAge+ages[j], vehicleClasses[pathClass[j]])}
		case ShapeRange:
			lo := lows[j]
			op = ReadOp{s, colorIndex, fmt.Sprintf("(Color=[%s-%s], %s*)", workload.Colors[lo], workload.Colors[lo+3], vehicleClasses[rangeClass[j]])}
		case ShapeParscan:
			op = ReadOp{s, colorIndex, fmt.Sprintf("(Color={%s,%s,%s}, [%s*, %s*])",
				workload.Colors[sets[0][j]], workload.Colors[sets[1][j]], workload.Colors[sets[2][j]],
				vehicleClasses[pairs[0][j]], vehicleClasses[pairs[1][j]])}
		}
		out[i] = op
	}
	return out
}

// genWrites builds the writer stream: WarmupWrites inserts, then n
// operations in blocks of 100 holding exactly writeMix of each kind.
func (g *Gen) genWrites(rng *rand.Rand, n int) {
	own := 0                  // own inserts so far
	var deletable []int       // own inserts from earlier blocks, not yet deleted
	insertOp := map[int]int{} // own ordinal -> index of the op that inserted it
	lastVehicle := map[int]int{}
	lastCompany := map[int]int{}
	all := make([]WriteOp, 0, g.Scale.WarmupWrites+n)
	insert := func(k WriteKind) WriteOp {
		op := WriteOp{Kind: k, FirstOwn: own, Dep: -1}
		cnt := 1
		if op.Kind == WBatch {
			cnt = batchInserts
		}
		for i := 0; i < cnt; i++ {
			op.Inserts = append(op.Inserts, g.newVehicle(rng, fmt.Sprintf("W%06d", own)))
			insertOp[own] = len(all)
			own++
		}
		return op
	}
	for i := 0; i < g.Scale.WarmupWrites; i++ {
		all = append(all, insert(WInsert))
	}
	for i := 0; i < own; i++ {
		deletable = append(deletable, i)
	}
	blockStart := own
	for len(all) < g.Scale.WarmupWrites+n {
		var kinds []WriteKind
		for k := WriteKind(0); k < numWriteKinds; k++ {
			for j := 0; j < writeMix[k]; j++ {
				kinds = append(kinds, k)
			}
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, k := range kinds {
			if len(all) == g.Scale.WarmupWrites+n {
				break
			}
			var op WriteOp
			switch k {
			case WInsert, WBatch:
				op = insert(k)
			case WSetColor, WSetMaker:
				v := rng.Intn(len(g.Vehicles))
				op = WriteOp{Kind: k, Vehicle: v, Dep: depOf(lastVehicle, v)}
				if k == WSetColor {
					op.Color = workload.Colors[rng.Intn(len(workload.Colors))]
				} else {
					op.Maker = rng.Intn(len(g.Companies))
				}
				lastVehicle[v] = len(all)
			case WDelete:
				j := rng.Intn(len(deletable))
				o := deletable[j]
				deletable[j] = deletable[len(deletable)-1]
				deletable = deletable[:len(deletable)-1]
				op = WriteOp{Kind: WDelete, Own: o, Dep: insertOp[o]}
			case WSetPresident:
				c := rng.Intn(len(g.Companies))
				op = WriteOp{Kind: k, Company: c, President: rng.Intn(len(g.Employees)), Dep: depOf(lastCompany, c)}
				lastCompany[c] = len(all)
			}
			all = append(all, op)
		}
		for i := blockStart; i < own; i++ {
			deletable = append(deletable, i)
		}
		blockStart = own
	}
	g.Warmup, g.Writes = all[:g.Scale.WarmupWrites], all[g.Scale.WarmupWrites:]
}

func depOf(last map[int]int, k int) int {
	if i, ok := last[k]; ok {
		return i
	}
	return -1
}

// Text renders the generated input one record per line; the same seed
// gives byte-identical text.
func (g *Gen) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s seed %d\n", g.Workload, g.Seed)
	for i, e := range g.Employees {
		fmt.Fprintf(&b, "E%d age=%d\n", i, e.Age)
	}
	for i, c := range g.Companies {
		fmt.Fprintf(&b, "C%d %s name=%s president=E%d\n", i, c.Class, c.Name, c.President)
	}
	for i, v := range g.Vehicles {
		fmt.Fprintf(&b, "V%d %s name=%s color=%s maker=C%d\n", i, v.Class, v.Name, v.Color, v.Maker)
	}
	for c, reads := range g.Reads {
		for _, r := range reads {
			fmt.Fprintf(&b, "read%d %s %s %s\n", c, r.Shape, r.Index, r.Text)
		}
	}
	for i, w := range append(append([]WriteOp(nil), g.Warmup...), g.Writes...) {
		fmt.Fprintf(&b, "write%d %s %+v\n", i, w.Kind, w)
	}
	return b.String()
}
