package main

// The measured phase: closed-loop readers and, for durable_mixed, the
// open-loop writer, all from this one process.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	uindex "repro"
	"repro/internal/server"
)

type readSample struct {
	shape Shape
	d     time.Duration
}

// phase is what one measured phase observed.
type phase struct {
	elapsed time.Duration
	reads   []readSample
	commits []time.Duration // due time to acknowledgement
	late    []time.Duration // how late the writer sent each commit

	readsAttempted, writesAttempted int
	failed, rejected, wrong         int
	problems                        []string
	spans                           []span
}

func (p *phase) problem(format string, args ...any) {
	if len(p.problems) < 8 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// merge folds one goroutine's observations into p.
func (p *phase) merge(q *phase) {
	p.reads = append(p.reads, q.reads...)
	p.commits = append(p.commits, q.commits...)
	p.late = append(p.late, q.late...)
	p.readsAttempted += q.readsAttempted
	p.writesAttempted += q.writesAttempted
	p.failed += q.failed
	p.rejected += q.rejected
	p.wrong += q.wrong
	for _, s := range q.problems {
		p.problem("%s", s)
	}
	p.spans = append(p.spans, q.spans...)
}

// refreshEvery is how often durable_mixed's reader re-pins its session
// snapshot, so it reads what the writer committed.
const refreshEvery = 32

// run measures one phase of d. With trace set, every operation also
// records spans (see trace.go).
func (b *bench) run(ctx context.Context, d time.Duration, trace bool) *phase {
	var mu sync.Mutex
	total := &phase{}
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for c := 0; c < b.spec.readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := b.readLoop(ctx, c, end, trace, start)
			mu.Lock()
			total.merge(p)
			mu.Unlock()
		}(c)
	}
	if b.spec.writer {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := b.writeLoop(ctx, start, end, trace)
			mu.Lock()
			total.merge(p)
			mu.Unlock()
		}()
	}
	wg.Wait()
	total.elapsed = d
	return total
}

// readLoop is one closed-loop reader: it sends its next query when the
// previous answer arrived, cycling through its generated list.
func (b *bench) readLoop(ctx context.Context, c int, end time.Time, trace bool, t0 time.Time) *phase {
	p := &phase{reads: make([]readSample, 0, 1<<15)}
	ops := b.gen.Reads[c]
	check := b.model == nil // durable_mixed's data moves under its reader
	var cl *server.Client
	if b.spec.served {
		cl = b.readers[c]
	}
	tr := tracer{t0: t0, trace: uint64(c+1) << 40}
	for i := 0; time.Now().Before(end); i++ {
		pos := i % len(ops)
		op := ops[pos]
		if cl != nil && b.model != nil && i%refreshEvery == 0 {
			if err := cl.Refresh(ctx); err != nil {
				p.failed++
				p.problem("refresh: %v", err)
			}
		}
		p.readsAttempted++
		start := time.Now()
		var ms []uindex.Match
		var st uindex.Stats
		var err error
		if cl != nil {
			ms, st, err = cl.Query(ctx, op.Index, op.Text)
		} else {
			ms, st, err = b.db.Query(ctx, op.Index, b.queries[c][pos])
		}
		stop := time.Now()
		if err != nil {
			p.failed++
			if errors.Is(err, server.ErrRetryLater) {
				p.rejected++
			}
			p.problem("%s: %v", op.Text, err)
			continue
		}
		p.reads = append(p.reads, readSample{op.Shape, stop.Sub(start)})
		if check {
			if got, want := answerOf(ms, st), b.refs[c][pos]; got.matches != want.matches || got.hash != want.hash || got.pages != want.pages {
				p.failed++
				p.wrong++
				p.problem("%s on %s: %d matches/%d pages, want %d/%d (or a different OID set)",
					op.Text, op.Index, got.matches, got.pages, want.matches, want.pages)
			}
		}
		if trace {
			p.spans = b.traceRead(ctx, &tr, c, pos, start, stop, st, p.spans)
		}
	}
	return p
}

// writeLoop is the open-loop writer: operation k is due at start + k/rate
// whatever happened to earlier ones, and its latency runs from that due
// time. Operations pipeline on the writer connection; one waits only for
// the acknowledgement of the previous operation on the same object.
func (b *bench) writeLoop(ctx context.Context, start, end time.Time, trace bool) *phase {
	p := &phase{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	interval := time.Second / writeRate
	tr := tracer{t0: start, trace: 1 << 50}
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(end) || b.nextWrite >= len(b.gen.Writes) {
			break
		}
		i := b.nextWrite
		b.nextWrite++
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		p.late = append(p.late, time.Since(due))
		p.writesAttempted++
		id := tr.next()
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			op := b.gen.Writes[i]
			if op.Dep >= 0 {
				<-b.done[op.Dep]
			}
			sent := time.Now()
			err := b.send(ctx, b.writer, op)
			ack := time.Now()
			close(b.done[len(b.gen.Warmup)+i])
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				p.failed++
				if errors.Is(err, server.ErrRetryLater) {
					p.rejected++
				}
				p.problem("%s: %v", op.Kind, err)
				return
			}
			p.commits = append(p.commits, ack.Sub(due))
			if trace {
				p.spans = append(p.spans, span{Trace: id, ID: 1, Name: "server.Client." + op.Kind.String(),
					Start: sent.Sub(start).Nanoseconds(), End: ack.Sub(start).Nanoseconds()})
			}
		}(i, due)
	}
	wg.Wait()
	return p
}
