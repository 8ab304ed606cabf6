package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	uindex "repro"
	"repro/internal/obs"
)

// Config configures a Server. DB and Addr are required; everything else
// has a production-shaped default.
type Config struct {
	// DB is the engine the server fronts. The server does not close it;
	// the caller owns its lifecycle (close after Shutdown returns).
	DB *uindex.Database
	// Addr is the data-path listen address (e.g. "127.0.0.1:9040";
	// ":0" picks an ephemeral port, readable from Addr() after Start).
	Addr string
	// HTTPAddr is the ops listener (/metrics, /healthz, /readyz,
	// /debug/pprof). Empty disables it.
	HTTPAddr string

	// MaxInFlight bounds requests executing concurrently across all
	// connections — the admission semaphore. At the bound, further
	// requests are answered RETRY_LATER immediately instead of queuing.
	// Default 128.
	MaxInFlight int
	// PipelineDepth bounds requests in flight per connection. A client
	// pipelining deeper than this is backpressured at the socket (the
	// read loop stops pulling frames), so server-side memory per
	// connection stays bounded. Default 32.
	PipelineDepth int
	// MaxFrame bounds one frame payload; oversized frames close the
	// connection. Default DefaultMaxFrame (1 MiB).
	MaxFrame int

	// RequestTimeout is the per-request deadline, plumbed into the
	// engine's ctx cancellation (scans abort at the next page visit).
	// Default 30s; negative disables.
	RequestTimeout time.Duration
	// IdleTimeout closes a connection that sends no frame for this long.
	// 0 disables.
	IdleTimeout time.Duration
	// WriteTimeout bounds one response write. Default 30s; negative
	// disables.
	WriteTimeout time.Duration

	// NoCheckpointOnDrain skips the Checkpoint normally taken at the end
	// of a graceful Shutdown.
	NoCheckpointOnDrain bool

	// Logger receives structured logs (connection lifecycle at Debug,
	// serve/drain events at Info, faults at Warn/Error). Default
	// slog.Default().
	Logger *slog.Logger
	// Registry receives the server's metric series; one is created when
	// nil. The engine's counters are bridged into it either way.
	Registry *obs.Registry
}

// Server serves a Database over the data-path protocol plus an HTTP ops
// listener. Create with New, run with Start, stop with Shutdown.
type Server struct {
	cfg Config
	db  *uindex.Database
	log *slog.Logger
	reg *obs.Registry
	m   *metrics

	ln        net.Listener
	admission chan struct{}

	mu     sync.Mutex
	conns  map[*conn]struct{}
	closed bool

	draining atomic.Bool
	ready    atomic.Bool
	wg       sync.WaitGroup // accept loop + connection handlers

	http *opsServer

	// testHookServe, when set, runs inside every request handler after
	// admission, before execution — tests use it to hold requests
	// in-flight deterministically.
	testHookServe func(Op)
}

// New validates cfg and builds a Server (not yet listening).
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, fmt.Errorf("server: Config.DB is required")
	}
	if cfg.Addr == "" {
		return nil, fmt.Errorf("server: Config.Addr is required")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 128
	}
	if cfg.PipelineDepth <= 0 {
		cfg.PipelineDepth = 32
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cfg:       cfg,
		db:        cfg.DB,
		log:       cfg.Logger,
		reg:       reg,
		m:         newMetrics(reg),
		admission: make(chan struct{}, cfg.MaxInFlight),
		conns:     make(map[*conn]struct{}),
	}
	registerEngine(reg, cfg.DB)
	return s, nil
}

// Registry returns the metrics registry (the /metrics source).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Start opens the listeners and begins serving. It returns once both
// listeners are bound; serving continues on background goroutines until
// Shutdown.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	if s.cfg.HTTPAddr != "" {
		s.http, err = newOpsServer(s)
		if err != nil {
			ln.Close()
			return err
		}
	}
	s.ready.Store(true)
	s.wg.Add(1)
	go s.acceptLoop()
	s.log.Info("uindexd serving", "addr", s.Addr(), "http", s.HTTPAddr(),
		"max_inflight", s.cfg.MaxInFlight, "pipeline_depth", s.cfg.PipelineDepth)
	return nil
}

// Addr returns the bound data-path address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// HTTPAddr returns the bound ops address ("" when disabled).
func (s *Server) HTTPAddr() string {
	if s.http == nil {
		return ""
	}
	return s.http.ln.Addr().String()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		s.mu.Lock()
		if s.closed || s.draining.Load() {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		c := newConn(s, nc)
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go c.run()
	}
}

func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Shutdown drains the server gracefully: stop accepting, stop reading new
// requests, let in-flight requests finish and their responses flush,
// release every session snapshot, checkpoint the database (unless
// configured off), and close the ops listener. ctx bounds the wait;
// when it expires, remaining connections are closed forcibly. Shutdown is
// idempotent; only the first call does the work.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.draining.Swap(true) {
		return nil
	}
	s.ready.Store(false)
	s.log.Info("uindexd draining")
	if s.ln != nil {
		s.ln.Close()
	}
	// Kick every blocked read; in-flight handlers keep running and their
	// responses are flushed before each connection closes.
	s.mu.Lock()
	for c := range s.conns {
		c.nc.SetReadDeadline(time.Unix(1, 0))
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()

	if !s.cfg.NoCheckpointOnDrain {
		if cerr := s.db.Checkpoint(); cerr != nil && !errors.Is(cerr, uindex.ErrClosed) {
			s.log.Error("drain checkpoint failed", "err", cerr)
			if err == nil {
				err = cerr
			}
		}
	}
	if s.http != nil {
		hctx, cancel := context.WithTimeout(context.Background(), time.Second)
		s.http.close(hctx)
		cancel()
	}
	s.log.Info("uindexd drained")
	return err
}

// conn is one data-path connection: a session holding one MVCC snapshot,
// a bounded pipeline of in-flight requests, and a serialized writer.
type conn struct {
	srv *Server
	nc  net.Conn
	br  io.Reader

	wmu sync.Mutex // serializes response frames

	// sessMu guards the session snapshot: queries hold it in read mode
	// for their duration, refreshes (explicit or post-write) swap it
	// under the write lock, so a session's reads always see one
	// consistent epoch and never a half-swapped view.
	sessMu sync.RWMutex
	snap   *uindex.Snapshot

	pipeline chan struct{} // per-connection in-flight bound
	inflight sync.WaitGroup
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		srv:      s,
		nc:       nc,
		br:       bufio.NewReader(nc),
		pipeline: make(chan struct{}, s.cfg.PipelineDepth),
	}
}

// run is the connection goroutine: handshake, session snapshot, then the
// frame read loop. On exit — client hang-up, protocol error, or drain — it
// waits for in-flight requests, flushes, releases the session, and closes.
func (c *conn) run() {
	s := c.srv
	defer s.wg.Done()
	defer s.removeConn(c)
	defer c.nc.Close()
	log := s.log.With("remote", c.nc.RemoteAddr().String())
	if err := c.handshake(); err != nil {
		log.Debug("handshake failed", "err", err)
		return
	}
	snap, err := s.db.Snapshot()
	if err != nil {
		log.Warn("session snapshot failed", "err", err)
		return
	}
	c.snap = snap
	s.m.sessions.Inc()
	log.Debug("session open")
	defer func() {
		c.inflight.Wait() // responses written before the socket closes
		c.releaseSession()
		s.m.sessions.Dec()
		log.Debug("session closed")
	}()
	for {
		if s.draining.Load() {
			return
		}
		if t := s.cfg.IdleTimeout; t > 0 {
			c.nc.SetReadDeadline(time.Now().Add(t))
		}
		payload, err := readFrame(c.br, s.cfg.MaxFrame)
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				s.m.oversized.Inc()
				log.Warn("oversized frame, closing connection", "err", err)
			} else if !errors.Is(err, io.EOF) && !s.draining.Load() {
				log.Debug("read failed", "err", err)
			}
			return
		}
		s.m.bytesIn.Add(uint64(4 + len(payload)))
		req, err := decodeRequest(payload)
		if err != nil {
			// The header parses even for bad bodies, so the error can be
			// correlated; an unreadable header poisons the stream → close.
			if len(payload) < 5 {
				return
			}
			c.sendError(req.id, CodeBadRequest, err.Error())
			continue
		}
		// Admission control: a full in-flight budget answers RETRY_LATER
		// immediately — bounded work, bounded memory, no hidden queue.
		select {
		case s.admission <- struct{}{}:
		default:
			s.m.rejected.Inc()
			c.sendError(req.id, CodeRetryLater, "server overloaded")
			continue
		}
		// The per-connection pipeline bound backpressures the read loop
		// itself: block here rather than buffer unboundedly.
		c.pipeline <- struct{}{}
		s.m.inflight.Inc()
		c.inflight.Add(1)
		go c.serve(req)
	}
}

// handshake validates the client hello and echoes the server hello.
func (c *conn) handshake() error {
	var hello [5]byte
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadFull(c.br, hello[:]); err != nil {
		return err
	}
	c.nc.SetReadDeadline(time.Time{})
	if [4]byte(hello[:4]) != handshakeMagic || hello[4] != protocolVersion {
		return fmt.Errorf("server: bad handshake %q version %d", hello[:4], hello[4])
	}
	_, err := c.nc.Write(append(handshakeMagic[:], protocolVersion))
	return err
}

// releaseSession releases the session snapshot (idempotent).
func (c *conn) releaseSession() {
	c.sessMu.Lock()
	snap := c.snap
	c.snap = nil
	c.sessMu.Unlock()
	if snap != nil {
		snap.Release()
	}
}

// refreshSession re-pins the session snapshot at the current database
// state, so the session observes its own (and every earlier committed)
// write.
func (c *conn) refreshSession() error {
	next, err := c.srv.db.Snapshot()
	if err != nil {
		return err
	}
	c.sessMu.Lock()
	prev := c.snap
	c.snap = next
	c.sessMu.Unlock()
	if prev != nil {
		prev.Release()
	}
	return nil
}

// serve executes one admitted request and writes its response.
func (c *conn) serve(req request) {
	s := c.srv
	defer c.inflight.Done()
	defer func() { <-c.pipeline }()
	defer func() { <-s.admission; s.m.inflight.Dec() }()
	if s.testHookServe != nil {
		s.testHookServe(req.op)
	}
	ctx := context.Background()
	if t := s.cfg.RequestTimeout; t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	start := time.Now()
	buf := respBufs.Get().(*[]byte)
	defer putRespBuf(buf)
	shape, frame, err := c.execute(ctx, req, buf)
	if m, ok := s.m.latency[shape]; ok {
		m.Observe(time.Since(start).Seconds())
		s.m.requests[shape].Inc()
	}
	if err != nil {
		code := codeOf(err)
		if code == CodeInternal && errors.Is(err, ErrBadRequest) {
			code = CodeBadRequest
		}
		c.sendError(req.id, code, err.Error())
		return
	}
	c.send(frame)
}

// respBufs pools response buffers, so the steady state of a connection
// serving queries allocates no response memory. Buffers grown above
// maxPooledResp by an outsized response are dropped instead of pinning
// that much memory in the pool.
var respBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

const maxPooledResp = 1 << 20

func putRespBuf(buf *[]byte) {
	if cap(*buf) <= maxPooledResp {
		respBufs.Put(buf)
	}
}

// execute dispatches one request to the engine. It returns the metric
// shape label and the success response frame, built in the pooled buffer
// *buf, or an error to map to a code.
func (c *conn) execute(ctx context.Context, req request, buf *[]byte) (shape string, frame []byte, err error) {
	if req.op == OpQuery {
		return c.query(ctx, req, buf)
	}
	db := c.srv.db
	ok := appendResponseFrame((*buf)[:0], CodeOK, req.id)
	switch req.op {
	case OpPing:
		return "ping", ok, nil
	case OpInsert:
		oid, err := db.Insert(req.class, req.attrs)
		if err != nil {
			return "write", nil, err
		}
		if err := c.refreshSession(); err != nil {
			return "write", nil, err
		}
		return "write", appendOID(ok, oid), nil
	case OpSet:
		if err := db.Set(req.oid, req.attr, req.value); err != nil {
			return "write", nil, err
		}
		if err := c.refreshSession(); err != nil {
			return "write", nil, err
		}
		return "write", ok, nil
	case OpDelete:
		if err := db.Delete(req.oid); err != nil {
			return "write", nil, err
		}
		if err := c.refreshSession(); err != nil {
			return "write", nil, err
		}
		return "write", ok, nil
	case OpBatch:
		var b uindex.Batch
		for _, op := range req.ops {
			switch op.Kind {
			case uindex.BatchInsert:
				b.Insert(op.Class, op.Attrs)
			case uindex.BatchSet:
				b.Set(op.OID, op.Attr, op.Value)
			case uindex.BatchDelete:
				b.Delete(op.OID)
			}
		}
		res, err := db.Apply(ctx, &b)
		if err != nil {
			// Applied operations stay applied (Apply is not a transaction),
			// but the error response carries no result body; refresh anyway
			// so the session observes the partial batch.
			if res.Applied > 0 {
				c.refreshSession()
			}
			return "batch", nil, err
		}
		if err := c.refreshSession(); err != nil {
			return "batch", nil, err
		}
		return "batch", appendBatchResult(ok, res), nil
	case OpCheckpoint:
		if err := db.Checkpoint(); err != nil {
			return "checkpoint", nil, err
		}
		return "checkpoint", ok, nil
	case OpRefresh:
		if err := c.refreshSession(); err != nil {
			return "refresh", nil, err
		}
		return "refresh", ok, nil
	}
	return "ping", nil, fmt.Errorf("%w: opcode %d", ErrBadRequest, req.op)
}

// query runs an OpQuery against the session snapshot and encodes the
// response. Matches stream from the scan straight into the frame behind a
// reserved prefix, so no []Match is collected; the frame is built in *buf,
// which is replaced when a large result grows it.
func (c *conn) query(ctx context.Context, req request, buf *[]byte) (shape string, frame []byte, err error) {
	ix, ok := c.srv.db.Index(req.index)
	if !ok {
		return "exact", nil, fmt.Errorf("no index %q: %w", req.index, uindex.ErrIndexNotFound)
	}
	q, err := uindex.ParseQuery(ix, req.query)
	if err != nil {
		return "exact", nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	shape = queryShape(q)
	// The session snapshot is held in read mode for the whole query: one
	// consistent epoch, never blocking other readers.
	c.sessMu.RLock()
	snap := c.snap
	if snap == nil {
		c.sessMu.RUnlock()
		return shape, nil, uindex.ErrSnapshotReleased
	}
	b := startQueryFrame(*buf)
	n := 0
	var encErr error
	stats, err := snap.QueryFunc(ctx, req.index, q, func(m uindex.Match) bool {
		n++
		b, encErr = appendMatch(b, m)
		return encErr == nil
	}, uindex.WithAlgorithm(req.alg))
	c.sessMu.RUnlock()
	*buf = b
	if err == nil {
		err = encErr
	}
	if err != nil {
		return shape, nil, err
	}
	return shape, finishQueryFrame(b, req.id, stats, n), nil
}

func appendOID(b []byte, oid uindex.OID) []byte {
	return append(b, byte(oid>>24), byte(oid>>16), byte(oid>>8), byte(oid))
}

// send writes one response frame (serialized per connection).
func (c *conn) send(frame []byte) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if t := c.srv.cfg.WriteTimeout; t > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(t))
	}
	if err := writeFrame(c.nc, frame); err != nil {
		c.srv.log.Debug("response write failed", "err", err)
		return
	}
	c.srv.m.bytesOut.Add(uint64(len(frame)))
}

// sendError writes an error response. Every non-OK code increments its
// errors-by-code counter.
func (c *conn) sendError(id uint32, code Code, msg string) {
	if m, ok := c.srv.m.errors[code]; ok {
		m.Inc()
	}
	b := appendResponseFrame(make([]byte, 0, frameHeaderLen+responseHeaderLen+len(msg)), code, id)
	c.send(append(b, msg...))
}
