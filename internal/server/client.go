package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	uindex "repro"
)

// Client is a minimal data-path client: one connection, one server-side
// session (snapshot), safe for concurrent use. Concurrent calls pipeline
// on the single connection and responses are matched by request id, so N
// goroutines sharing a Client issue N requests in flight at once.
//
// Errors returned by calls match the facade's sentinels with errors.Is
// (uindex.ErrIndexNotFound, uindex.ErrClosed, ...), plus ErrRetryLater
// when the server sheds load and ErrBadRequest for malformed queries.
type Client struct {
	nc     net.Conn
	wmu    sync.Mutex
	nextID atomic.Uint32

	mu      sync.Mutex
	pending map[uint32]chan clientResp
	err     error // terminal transport error, set once
}

type clientResp struct {
	code Code
	body []byte
}

// Dial connects and performs the protocol handshake.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 10*time.Second)
}

// DialTimeout is Dial with a connect+handshake deadline.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	nc.SetDeadline(time.Now().Add(timeout))
	if _, err := nc.Write(append(handshakeMagic[:], protocolVersion)); err != nil {
		nc.Close()
		return nil, err
	}
	var hello [5]byte
	if _, err := readFull(nc, hello[:]); err != nil {
		nc.Close()
		return nil, fmt.Errorf("server handshake: %w", err)
	}
	if [4]byte(hello[:4]) != handshakeMagic || hello[4] != protocolVersion {
		nc.Close()
		return nil, fmt.Errorf("server handshake: bad hello %q version %d", hello[:4], hello[4])
	}
	nc.SetDeadline(time.Time{})
	c := &Client{nc: nc, pending: make(map[uint32]chan clientResp)}
	go c.readLoop()
	return c, nil
}

func readFull(nc net.Conn, b []byte) (int, error) {
	n := 0
	for n < len(b) {
		m, err := nc.Read(b[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// readLoop dispatches responses to waiting calls by request id. A
// transport error fails every pending and future call. Reads go through a
// buffer, so a frame's header and a small body cost one read syscall.
func (c *Client) readLoop() {
	br := bufio.NewReader(c.nc)
	for {
		payload, err := readFrame(br, DefaultMaxFrame)
		if err != nil {
			c.fail(fmt.Errorf("server: connection lost: %w", err))
			return
		}
		code, id, body, err := decodeResponseHeader(payload)
		if err != nil {
			c.fail(fmt.Errorf("server: malformed response: %w", err))
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ok { // unknown ids are abandoned calls (context canceled)
			ch <- clientResp{code: code, body: body}
		}
	}
}

func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.pending
	c.pending = make(map[uint32]chan clientResp)
	c.mu.Unlock()
	for _, ch := range pending {
		close(ch)
	}
}

// Close tears down the connection; pending calls fail.
func (c *Client) Close() error {
	err := c.nc.Close()
	c.fail(fmt.Errorf("server: client closed"))
	return err
}

// roundTrip sends one request and waits for its response or ctx.
func (c *Client) roundTrip(ctx context.Context, req request) (clientResp, error) {
	req.id = c.nextID.Add(1)
	frame, err := appendRequest(make([]byte, frameHeaderLen, 64), req)
	if err != nil {
		return clientResp{}, err
	}
	ch := make(chan clientResp, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return clientResp{}, err
	}
	c.pending[req.id] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	err = writeFrame(c.nc, frame)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, req.id)
		c.mu.Unlock()
		return clientResp{}, fmt.Errorf("server: send: %w", err)
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			return clientResp{}, err
		}
		return resp, nil
	case <-ctx.Done():
		// Abandon the call; the read loop discards the late response.
		c.mu.Lock()
		delete(c.pending, req.id)
		c.mu.Unlock()
		return clientResp{}, ctx.Err()
	}
}

// call runs a round trip and maps error codes.
func (c *Client) call(ctx context.Context, req request) ([]byte, error) {
	resp, err := c.roundTrip(ctx, req)
	if err != nil {
		return nil, err
	}
	if resp.code != CodeOK {
		return nil, errOf(resp.code, string(resp.body))
	}
	return resp.body, nil
}

// Ping round-trips an empty request.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.call(ctx, request{op: OpPing})
	return err
}

// Query runs a textual query (querylang grammar) on the named index
// against the session's snapshot, with the parallel (Algorithm 1)
// strategy.
func (c *Client) Query(ctx context.Context, index, query string) ([]uindex.Match, uindex.Stats, error) {
	return c.QueryAlgorithm(ctx, index, query, uindex.Parallel)
}

// QueryAlgorithm is Query with an explicit retrieval strategy.
func (c *Client) QueryAlgorithm(ctx context.Context, index, query string, alg uindex.Algorithm) ([]uindex.Match, uindex.Stats, error) {
	body, err := c.call(ctx, request{op: OpQuery, index: index, query: query, alg: alg})
	if err != nil {
		return nil, uindex.Stats{}, err
	}
	stats, rest, err := readStats(body)
	if err != nil {
		return nil, uindex.Stats{}, fmt.Errorf("server: malformed query response: %w", err)
	}
	ms, _, err := readMatches(rest)
	if err != nil {
		return nil, uindex.Stats{}, fmt.Errorf("server: malformed query response: %w", err)
	}
	return ms, stats, nil
}

// Insert stores a new object; the session snapshot is refreshed so the
// session's subsequent reads observe the write.
func (c *Client) Insert(ctx context.Context, class string, attrs uindex.Attrs) (uindex.OID, error) {
	body, err := c.call(ctx, request{op: OpInsert, class: class, attrs: attrs})
	if err != nil {
		return 0, err
	}
	if len(body) < 4 {
		return 0, fmt.Errorf("server: malformed insert response")
	}
	return uindex.OID(binary.BigEndian.Uint32(body)), nil
}

// Set updates one attribute; the session snapshot is refreshed.
func (c *Client) Set(ctx context.Context, oid uindex.OID, attr string, value any) error {
	_, err := c.call(ctx, request{op: OpSet, oid: oid, attr: attr, value: value})
	return err
}

// Delete removes an object; the session snapshot is refreshed.
func (c *Client) Delete(ctx context.Context, oid uindex.OID) error {
	_, err := c.call(ctx, request{op: OpDelete, oid: oid})
	return err
}

// ApplyBatch executes a batch of mutations in one round trip with the
// semantics of Database.Apply: one writer-lock acquisition per index shard,
// operations applied in order, first failure stops the batch (earlier
// operations stay applied — the error response carries no per-op result, so
// re-derive state with a query if that matters). The session snapshot is
// refreshed afterwards. Batches larger than the frame limit must be chunked
// by the caller.
func (c *Client) ApplyBatch(ctx context.Context, b *uindex.Batch) (uindex.BatchResult, error) {
	if b == nil || b.Len() == 0 {
		return uindex.BatchResult{}, nil
	}
	if b.Len() > maxOpsPerBatch {
		return uindex.BatchResult{}, fmt.Errorf("%w: batch of %d operations exceeds %d", ErrBadRequest, b.Len(), maxOpsPerBatch)
	}
	body, err := c.call(ctx, request{op: OpBatch, ops: b.Ops()})
	if err != nil {
		return uindex.BatchResult{}, err
	}
	res, _, err := readBatchResult(body)
	if err != nil {
		return uindex.BatchResult{}, fmt.Errorf("server: malformed batch response: %w", err)
	}
	return res, nil
}

// Checkpoint makes every disk-backed index durable.
func (c *Client) Checkpoint(ctx context.Context) error {
	_, err := c.call(ctx, request{op: OpCheckpoint})
	return err
}

// Refresh re-pins the session snapshot at the current database state,
// making writes committed by other sessions visible to this one.
func (c *Client) Refresh(ctx context.Context) error {
	_, err := c.call(ctx, request{op: OpRefresh})
	return err
}
