package main

// The durable writer's model of the database: every acknowledged write is
// applied here, and after the run the database must agree with it.

import (
	"context"
	"fmt"
	"sort"
	"sync"

	uindex "repro"
	"repro/internal/server"
	"repro/internal/workload"
)

type vehicleState struct {
	class, color string
	maker        int
}

type ownState struct {
	oid     uindex.OID
	v       NewVehicle
	acked   bool
	deleted bool
}

type model struct {
	mu        sync.Mutex
	vehicles  []vehicleState // loaded vehicles, by ordinal
	own       []ownState     // the writer's inserts, by own ordinal
	president []int          // company ordinal -> employee ordinal
	// A failed write leaves its effect unknown: unknown holds the objects
	// it may have changed, and lostInserts counts inserts whose OIDs never
	// came back. The state check skips exactly those and checks every
	// other object; any failed write also fails the run (see bench.check).
	unknown      map[uindex.OID]bool
	lostInserts  int
	failedWrites int
	userBytes    int64 // bytes of attribute names and values the writer sent
}

func newModel(g *Gen) *model {
	m := &model{unknown: map[uindex.OID]bool{}}
	for _, v := range g.Vehicles {
		m.vehicles = append(m.vehicles, vehicleState{v.Class, v.Color, v.Maker})
	}
	for _, c := range g.Companies {
		m.president = append(m.president, c.President)
	}
	return m
}

func (m *model) liveOwn() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, o := range m.own {
		if o.acked && !o.deleted {
			n++
		}
	}
	return n
}

// ownOID is own insert k's OID; false if that insert was not acknowledged.
func (m *model) ownOID(k int) (uindex.OID, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if k >= len(m.own) || !m.own[k].acked {
		return 0, false
	}
	return m.own[k].oid, true
}

func (m *model) failed() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failedWrites
}

// userBytesOf is what a mutation carries that a user would count as data:
// attribute names and values, and 4 bytes per object reference.
func userBytesOf(op WriteOp) int64 {
	var n int64
	for _, v := range op.Inserts {
		n += int64(len("Name") + len(v.Name) + len("Color") + len(v.Color) + len("ManufacturedBy") + 4)
	}
	switch op.Kind {
	case WSetColor:
		n += int64(4 + len("Color") + len(op.Color))
	case WSetMaker:
		n += int64(4 + len("ManufacturedBy") + 4)
	case WDelete:
		n += 4
	case WSetPresident:
		n += int64(4 + len("President") + 4)
	}
	return n
}

// send issues one write on the writer connection and applies it to the
// model once acknowledged.
func (b *bench) send(ctx context.Context, c *server.Client, op WriteOp) error {
	m := b.model
	var err error
	var oids []uindex.OID
	switch op.Kind {
	case WInsert:
		var oid uindex.OID
		oid, err = c.Insert(ctx, op.Inserts[0].Class, b.vehicleAttrs(op.Inserts[0]))
		oids = []uindex.OID{oid}
	case WBatch:
		var batch uindex.Batch
		for _, v := range op.Inserts {
			batch.Insert(v.Class, b.vehicleAttrs(v))
		}
		var res uindex.BatchResult
		res, err = c.ApplyBatch(ctx, &batch)
		oids = res.OIDs
	case WSetColor:
		err = c.Set(ctx, b.vehicles[op.Vehicle], "Color", op.Color)
	case WSetMaker:
		err = c.Set(ctx, b.vehicles[op.Vehicle], "ManufacturedBy", b.companies[op.Maker])
	case WDelete:
		if oid, ok := m.ownOID(op.Own); ok {
			err = c.Delete(ctx, oid)
		} else {
			err = fmt.Errorf("delete: the insert of own object %d failed", op.Own)
		}
	case WSetPresident:
		err = c.Set(ctx, b.companies[op.Company], "President", b.employees[op.President])
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.userBytes += userBytesOf(op)
	if err == nil && len(oids) != len(op.Inserts) {
		err = fmt.Errorf("%s: %d OIDs for %d inserts", op.Kind, len(oids), len(op.Inserts))
	}
	if err != nil {
		m.failedWrites++
		switch op.Kind {
		case WInsert, WBatch:
			m.lostInserts += len(op.Inserts)
		case WSetColor, WSetMaker:
			m.unknown[b.vehicles[op.Vehicle]] = true
		case WDelete:
			if op.Own < len(m.own) && m.own[op.Own].acked {
				m.unknown[m.own[op.Own].oid] = true
			}
		case WSetPresident:
			m.unknown[b.companies[op.Company]] = true
		}
		return err
	}
	for len(m.own) < op.FirstOwn+len(op.Inserts) {
		m.own = append(m.own, ownState{})
	}
	for i, v := range op.Inserts {
		m.own[op.FirstOwn+i] = ownState{oid: oids[i], v: v, acked: true}
	}
	switch op.Kind {
	case WSetColor:
		m.vehicles[op.Vehicle].color = op.Color
	case WSetMaker:
		m.vehicles[op.Vehicle].maker = op.Maker
	case WDelete:
		m.own[op.Own].deleted = true
	case WSetPresident:
		m.president[op.Company] = op.President
	}
	return nil
}

// warmWrites sends the warm-up inserts closed loop; their objects are the
// first the open-loop writer may delete.
func (b *bench) warmWrites(ctx context.Context) error {
	for _, op := range b.gen.Warmup {
		if err := b.send(ctx, b.writer, op); err != nil {
			return err
		}
	}
	return nil
}

// checkState compares the whole database with the model: every object
// through the store, and every (value, class) cluster of both indexes as an
// exact OID set. Objects a failed write left unknown are skipped, in the
// index whose key that write may have changed. It returns one line per
// disagreement, at most a few.
func (b *bench) checkState(ctx context.Context, db *uindex.Database) []string {
	m := b.model
	m.mu.Lock()
	defer m.mu.Unlock()
	var bad []string
	report := func(format string, args ...any) {
		if len(bad) < 8 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	type cluster struct {
		index, value, class string
	}
	want := map[cluster][]uindex.OID{}
	known := map[uindex.OID]bool{}
	skip := map[string]map[uindex.OID]bool{colorIndex: {}, ageIndex: {}}
	expect := func(oid uindex.OID, class, color string, maker int) {
		known[oid] = true
		if m.unknown[oid] {
			skip[colorIndex][oid], skip[ageIndex][oid] = true, true
			return
		}
		o, ok := db.Get(oid)
		if !ok {
			report("object %d missing", oid)
			return
		}
		c, _ := o.Attr("Color")
		mk, _ := o.Attr("ManufacturedBy")
		if o.Class != class || c != any(color) || mk != any(b.companies[maker]) {
			report("object %d: have %s %v %v, want %s %s %d", oid, o.Class, c, mk, class, color, b.companies[maker])
		}
		want[cluster{colorIndex, color, class}] = append(want[cluster{colorIndex, color, class}], oid)
		if m.unknown[b.companies[maker]] { // its president, so the age, is unknown
			skip[ageIndex][oid] = true
			return
		}
		age := fmt.Sprint(b.gen.Employees[m.president[maker]].Age)
		want[cluster{ageIndex, age, class}] = append(want[cluster{ageIndex, age, class}], oid)
	}
	for i, v := range m.vehicles {
		expect(b.vehicles[i], v.class, v.color, v.maker)
	}
	for _, o := range m.own {
		switch {
		case !o.acked:
		case o.deleted:
			known[o.oid] = true
			if _, ok := db.Get(o.oid); ok {
				report("deleted object %d still present", o.oid)
			}
		default:
			expect(o.oid, o.v.Class, o.v.Color, o.v.Maker)
		}
	}
	for i, e := range m.president {
		if m.unknown[b.companies[i]] {
			continue
		}
		o, ok := db.Get(b.companies[i])
		if !ok {
			report("company %d missing", b.companies[i])
			continue
		}
		if p, _ := o.Attr("President"); p != any(b.employees[e]) {
			report("company %d: president %v, want %d", b.companies[i], p, b.employees[e])
		}
	}
	// An insert that failed may still have happened, under an OID never
	// learned: such vehicles cannot be placed, so the clusters ignore them.
	ignore := func(index string) func(uindex.OID) bool {
		return func(oid uindex.OID) bool { return skip[index][oid] || (m.lostInserts > 0 && !known[oid]) }
	}
	for _, vc := range workload.VehicleClasses {
		for _, color := range workload.Colors {
			bad = append(bad, b.checkCluster(ctx, db, colorIndex,
				fmt.Sprintf("(Color=%s, %s)", color, vc.Name), want[cluster{colorIndex, color, vc.Name}], ignore(colorIndex))...)
		}
		for a := minAge; a < minAge+numAges; a++ {
			age := fmt.Sprint(a)
			bad = append(bad, b.checkCluster(ctx, db, ageIndex,
				fmt.Sprintf("(Age=%s, ?, ?, %s)", age, vc.Name), want[cluster{ageIndex, age, vc.Name}], ignore(ageIndex))...)
		}
		if len(bad) > 8 {
			return bad[:8]
		}
	}
	return bad
}

// checkCluster runs one exact-class query and compares the vehicles it
// returns, less those ignore names, with want.
func (b *bench) checkCluster(ctx context.Context, db *uindex.Database, index, text string, want []uindex.OID, ignore func(uindex.OID) bool) []string {
	ix, ok := db.Index(index)
	if !ok {
		return []string{"no index " + index}
	}
	q, err := uindex.ParseQuery(ix, text)
	if err != nil {
		return []string{err.Error()}
	}
	ms, _, err := db.Query(ctx, index, q)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", text, err)}
	}
	have := make([]uindex.OID, 0, len(ms))
	for _, mt := range ms {
		if oid := mt.Path[len(mt.Path)-1].OID; !ignore(oid) {
			have = append(have, oid)
		}
	}
	sort.Slice(have, func(i, j int) bool { return have[i] < have[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if fmt.Sprint(have) != fmt.Sprint(want) {
		return []string{fmt.Sprintf("%s on %s: %d matches, want %d", text, index, len(have), len(want))}
	}
	return nil
}
