// Package server is the network subsystem over the engine facade: uindexd
// speaks a small length-prefixed binary protocol on the data path (one
// MVCC snapshot per connection, request pipelining, typed error codes,
// admission control) and serves an HTTP ops listener (/metrics, /healthz,
// /readyz, /debug/pprof). Client (client.go) is the matching minimal Go
// client.
//
// Wire format. After a 5-byte handshake in each direction ("uix1" + version
// byte), every message is a frame:
//
//	uint32 big-endian payload length | payload
//
// A request payload is op(1) ‖ id(4, big-endian) ‖ body; a response payload
// is status(1) ‖ id(4) ‖ body, where status 0 is success and anything else
// is a Code with a UTF-8 error message as the body. Request ids are chosen
// by the client and echoed verbatim, so a client may pipeline any number of
// requests per connection and match responses out of order. Strings and
// counts are uvarint-length-prefixed; attribute values are tagged (tag byte
// then value). Frames larger than the server's configured maximum are
// rejected and the connection closed — length prefixes from untrusted input
// never drive allocation beyond that bound.
package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	uindex "repro"
	"repro/internal/arena"
	"repro/internal/encoding"
)

// protocolVersion is negotiated by the handshake; mismatches are rejected.
const protocolVersion = 1

// handshakeMagic opens every connection, in both directions.
var handshakeMagic = [4]byte{'u', 'i', 'x', '1'}

// DefaultMaxFrame bounds a frame payload unless Config overrides it.
const DefaultMaxFrame = 1 << 20

// Op is a request opcode.
type Op byte

// Request opcodes.
const (
	OpPing       Op = 1 // body: empty → empty
	OpQuery      Op = 2 // body: flags(1) ‖ index ‖ query-text → stats ‖ matches
	OpInsert     Op = 3 // body: class ‖ nattrs ‖ (name ‖ value)* → oid(4)
	OpSet        Op = 4 // body: oid(4) ‖ name ‖ value → empty
	OpDelete     Op = 5 // body: oid(4) → empty
	OpCheckpoint Op = 6 // body: empty → empty
	OpRefresh    Op = 7 // body: empty → empty; re-pins the session snapshot
	OpBatch      Op = 8 // body: nops ‖ op* → applied ‖ noids ‖ oid(4)*
)

// queryFlagForward selects the forward-scanning baseline algorithm.
const queryFlagForward = 0x01

// Code is a typed response status. Codes mirror the facade's sentinel
// errors so a remote caller can branch with errors.Is exactly like a local
// one.
type Code byte

// Response status codes.
const (
	CodeOK               Code = 0
	CodeBadRequest       Code = 1 // malformed frame body or query text
	CodeIndexNotFound    Code = 2 // uindex.ErrIndexNotFound
	CodeUnknownClass     Code = 3 // uindex.ErrUnknownClass
	CodeClosed           Code = 4 // uindex.ErrClosed
	CodeSnapshotReleased Code = 5 // uindex.ErrSnapshotReleased
	CodeRetryLater       Code = 6 // admission control rejected the request
	CodeDeadline         Code = 7 // per-request deadline exceeded
	CodeCanceled         Code = 8 // request context canceled (server drain)
	CodeInternal         Code = 9 // unexpected engine failure
)

// Typed errors of the protocol layer.
var (
	// ErrRetryLater is returned to clients when the server sheds load:
	// the in-flight request budget is full. The request was not executed;
	// back off and retry.
	ErrRetryLater = errors.New("server: overloaded, retry later")
	// ErrBadRequest is returned for malformed requests (client side it
	// wraps the server's message).
	ErrBadRequest = errors.New("server: bad request")
	// ErrFrameTooLarge is returned when a frame exceeds the negotiated
	// maximum; the connection is closed, since the stream can no longer
	// be framed safely.
	ErrFrameTooLarge = errors.New("server: frame exceeds maximum size")
	// errShortFrame reports a truncated frame body during decoding.
	errShortFrame = errors.New("server: truncated frame body")
)

// frameHeaderLen is the size of the length prefix that opens every frame.
const frameHeaderLen = 4

// writeFrame sends one frame: frameHeaderLen reserved bytes followed by the
// payload. It fills in the length prefix and issues a single Write, so a
// frame costs one syscall and, under TCP_NODELAY, one segment.
func writeFrame(w io.Writer, frame []byte) error {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-frameHeaderLen))
	_, err := w.Write(frame)
	return err
}

// readFrame reads one frame, allocating at most maxFrame bytes off the
// untrusted length prefix.
func readFrame(r io.Reader, maxFrame int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if int64(n) > int64(maxFrame) {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// --- primitive codecs -------------------------------------------------

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errShortFrame
	}
	return v, b[n:], nil
}

// readBytes decodes a length-prefixed byte string, aliasing b.
func readBytes(b []byte) ([]byte, []byte, error) {
	n, rest, err := readUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, errShortFrame
	}
	return rest[:n], rest[n:], nil
}

func readString(b []byte) (string, []byte, error) {
	s, rest, err := readBytes(b)
	return string(s), rest, err
}

func readUint32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, errShortFrame
	}
	return binary.BigEndian.Uint32(b), b[4:], nil
}

// Value tags for attribute values and match values on the wire.
const (
	tagString  = 0
	tagUint64  = 1
	tagInt64   = 2
	tagFloat64 = 3
	tagOID     = 4 // object reference (uint32)
)

// appendValue encodes an attribute value. The accepted dynamic types are
// the ones the store accepts plus OID references.
func appendValue(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case string:
		b = append(b, tagString)
		return appendString(b, x), nil
	case uint64:
		b = append(b, tagUint64)
		return binary.BigEndian.AppendUint64(b, x), nil
	case int64:
		b = append(b, tagInt64)
		return binary.BigEndian.AppendUint64(b, uint64(x)), nil
	case int:
		b = append(b, tagInt64)
		return binary.BigEndian.AppendUint64(b, uint64(int64(x))), nil
	case float64:
		b = append(b, tagFloat64)
		return binary.BigEndian.AppendUint64(b, math.Float64bits(x)), nil
	case uindex.OID:
		b = append(b, tagOID)
		return binary.BigEndian.AppendUint32(b, uint32(x)), nil
	default:
		return nil, fmt.Errorf("%w: unsupported value type %T", ErrBadRequest, v)
	}
}

func readValue(b []byte) (any, []byte, error) {
	if len(b) < 1 {
		return nil, nil, errShortFrame
	}
	tag, b := b[0], b[1:]
	switch tag {
	case tagString:
		return toAnyString(readString(b))
	case tagUint64:
		if len(b) < 8 {
			return nil, nil, errShortFrame
		}
		return binary.BigEndian.Uint64(b), b[8:], nil
	case tagInt64:
		if len(b) < 8 {
			return nil, nil, errShortFrame
		}
		return int64(binary.BigEndian.Uint64(b)), b[8:], nil
	case tagFloat64:
		if len(b) < 8 {
			return nil, nil, errShortFrame
		}
		return math.Float64frombits(binary.BigEndian.Uint64(b)), b[8:], nil
	case tagOID:
		if len(b) < 4 {
			return nil, nil, errShortFrame
		}
		return uindex.OID(binary.BigEndian.Uint32(b)), b[4:], nil
	default:
		return nil, nil, fmt.Errorf("%w: unknown value tag %d", errShortFrame, tag)
	}
}

func toAnyString(s string, rest []byte, err error) (any, []byte, error) {
	if err != nil {
		return nil, nil, err
	}
	return s, rest, nil
}

// --- requests ---------------------------------------------------------

// request is one decoded data-path request.
type request struct {
	op    Op
	id    uint32
	index string // OpQuery
	query string // OpQuery
	alg   uindex.Algorithm
	class string // OpInsert
	attrs uindex.Attrs
	oid   uindex.OID       // OpSet, OpDelete
	attr  string           // OpSet
	value any              // OpSet
	ops   []uindex.BatchOp // OpBatch
}

// maxAttrsPerInsert bounds the attribute count of one insert so a hostile
// count prefix cannot drive allocation.
const maxAttrsPerInsert = 1024

// maxOpsPerBatch bounds one OpBatch frame so a hostile count prefix cannot
// drive allocation; clients chunk larger batches across frames.
const maxOpsPerBatch = 4096

// decodeRequest parses a request payload. The header (op, id) parses
// first, so even a malformed body yields an id the error response can be
// correlated with.
func decodeRequest(payload []byte) (request, error) {
	var req request
	if len(payload) < 5 {
		return req, errShortFrame
	}
	req.op = Op(payload[0])
	req.id = binary.BigEndian.Uint32(payload[1:5])
	body := payload[5:]
	var err error
	switch req.op {
	case OpPing, OpCheckpoint, OpRefresh:
		if len(body) != 0 {
			return req, errShortFrame
		}
	case OpQuery:
		if len(body) < 1 {
			return req, errShortFrame
		}
		flags := body[0]
		if flags&queryFlagForward != 0 {
			req.alg = uindex.Forward
		}
		if req.index, body, err = readString(body[1:]); err != nil {
			return req, err
		}
		if req.query, body, err = readString(body); err != nil {
			return req, err
		}
		if len(body) != 0 {
			return req, errShortFrame
		}
	case OpInsert:
		if req.class, body, err = readString(body); err != nil {
			return req, err
		}
		var n uint64
		if n, body, err = readUvarint(body); err != nil {
			return req, err
		}
		if n > maxAttrsPerInsert {
			return req, fmt.Errorf("%w: %d attributes", errShortFrame, n)
		}
		req.attrs = make(uindex.Attrs, n)
		for i := uint64(0); i < n; i++ {
			var name string
			if name, body, err = readString(body); err != nil {
				return req, err
			}
			if req.attrs[name], body, err = readValue(body); err != nil {
				return req, err
			}
		}
		if len(body) != 0 {
			return req, errShortFrame
		}
	case OpSet:
		var oid uint32
		if oid, body, err = readUint32(body); err != nil {
			return req, err
		}
		req.oid = uindex.OID(oid)
		if req.attr, body, err = readString(body); err != nil {
			return req, err
		}
		if req.value, body, err = readValue(body); err != nil {
			return req, err
		}
		if len(body) != 0 {
			return req, errShortFrame
		}
	case OpDelete:
		var oid uint32
		if oid, body, err = readUint32(body); err != nil {
			return req, err
		}
		req.oid = uindex.OID(oid)
		if len(body) != 0 {
			return req, errShortFrame
		}
	case OpBatch:
		var n uint64
		if n, body, err = readUvarint(body); err != nil {
			return req, err
		}
		if n > maxOpsPerBatch {
			return req, fmt.Errorf("%w: %d batch operations", errShortFrame, n)
		}
		req.ops = make([]uindex.BatchOp, 0, n)
		for i := uint64(0); i < n; i++ {
			var op uindex.BatchOp
			if op, body, err = readBatchOp(body); err != nil {
				return req, err
			}
			req.ops = append(req.ops, op)
		}
		if len(body) != 0 {
			return req, errShortFrame
		}
	default:
		return req, fmt.Errorf("%w: unknown opcode %d", errShortFrame, req.op)
	}
	return req, nil
}

// readBatchOp decodes one batch operation: a kind byte, then the fields of
// that kind — insert carries class and attributes like OpInsert, set and
// delete carry the oid (and for set the attribute and tagged value) like
// OpSet/OpDelete.
func readBatchOp(b []byte) (uindex.BatchOp, []byte, error) {
	var op uindex.BatchOp
	if len(b) < 1 {
		return op, nil, errShortFrame
	}
	kind, b := uindex.BatchOpKind(b[0]), b[1:]
	op.Kind = kind
	var err error
	switch kind {
	case uindex.BatchInsert:
		if op.Class, b, err = readString(b); err != nil {
			return op, nil, err
		}
		var n uint64
		if n, b, err = readUvarint(b); err != nil {
			return op, nil, err
		}
		if n > maxAttrsPerInsert {
			return op, nil, fmt.Errorf("%w: %d attributes", errShortFrame, n)
		}
		op.Attrs = make(uindex.Attrs, n)
		for i := uint64(0); i < n; i++ {
			var name string
			if name, b, err = readString(b); err != nil {
				return op, nil, err
			}
			if op.Attrs[name], b, err = readValue(b); err != nil {
				return op, nil, err
			}
		}
	case uindex.BatchSet:
		var oid uint32
		if oid, b, err = readUint32(b); err != nil {
			return op, nil, err
		}
		op.OID = uindex.OID(oid)
		if op.Attr, b, err = readString(b); err != nil {
			return op, nil, err
		}
		if op.Value, b, err = readValue(b); err != nil {
			return op, nil, err
		}
	case uindex.BatchDelete:
		var oid uint32
		if oid, b, err = readUint32(b); err != nil {
			return op, nil, err
		}
		op.OID = uindex.OID(oid)
	default:
		return op, nil, fmt.Errorf("%w: unknown batch op kind %d", errShortFrame, uint8(kind))
	}
	return op, b, nil
}

// appendBatchOp encodes one batch operation (the client side of
// readBatchOp).
func appendBatchOp(b []byte, op uindex.BatchOp) ([]byte, error) {
	b = append(b, byte(op.Kind))
	var err error
	switch op.Kind {
	case uindex.BatchInsert:
		b = appendString(b, op.Class)
		b = binary.AppendUvarint(b, uint64(len(op.Attrs)))
		for name, v := range op.Attrs {
			b = appendString(b, name)
			if b, err = appendValue(b, v); err != nil {
				return nil, err
			}
		}
	case uindex.BatchSet:
		b = binary.BigEndian.AppendUint32(b, uint32(op.OID))
		b = appendString(b, op.Attr)
		if b, err = appendValue(b, op.Value); err != nil {
			return nil, err
		}
	case uindex.BatchDelete:
		b = binary.BigEndian.AppendUint32(b, uint32(op.OID))
	default:
		return nil, fmt.Errorf("server: cannot encode batch op kind %d", uint8(op.Kind))
	}
	return b, nil
}

// appendRequest appends a request payload to b (the client side of
// decodeRequest).
func appendRequest(b []byte, req request) ([]byte, error) {
	b = append(b, byte(req.op))
	b = binary.BigEndian.AppendUint32(b, req.id)
	switch req.op {
	case OpPing, OpCheckpoint, OpRefresh:
	case OpQuery:
		var flags byte
		if req.alg == uindex.Forward {
			flags |= queryFlagForward
		}
		b = append(b, flags)
		b = appendString(b, req.index)
		b = appendString(b, req.query)
	case OpInsert:
		b = appendString(b, req.class)
		b = binary.AppendUvarint(b, uint64(len(req.attrs)))
		for name, v := range req.attrs {
			b = appendString(b, name)
			var err error
			if b, err = appendValue(b, v); err != nil {
				return nil, err
			}
		}
	case OpSet:
		b = binary.BigEndian.AppendUint32(b, uint32(req.oid))
		b = appendString(b, req.attr)
		var err error
		if b, err = appendValue(b, req.value); err != nil {
			return nil, err
		}
	case OpDelete:
		b = binary.BigEndian.AppendUint32(b, uint32(req.oid))
	case OpBatch:
		b = binary.AppendUvarint(b, uint64(len(req.ops)))
		for _, op := range req.ops {
			var err error
			if b, err = appendBatchOp(b, op); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("server: cannot encode opcode %d", req.op)
	}
	return b, nil
}

// --- responses --------------------------------------------------------

// responseHeaderLen is the size of a response payload's status and id.
const responseHeaderLen = 5

// appendResponseHeader starts a response payload.
func appendResponseHeader(b []byte, code Code, id uint32) []byte {
	b = append(b, byte(code))
	return binary.BigEndian.AppendUint32(b, id)
}

// appendResponseFrame starts a response frame in b: the reserved length
// prefix, then the response header.
func appendResponseFrame(b []byte, code Code, id uint32) []byte {
	return appendResponseHeader(append(b, make([]byte, frameHeaderLen)...), code, id)
}

// decodeResponseHeader splits a response payload.
func decodeResponseHeader(payload []byte) (Code, uint32, []byte, error) {
	if len(payload) < 5 {
		return 0, 0, nil, errShortFrame
	}
	return Code(payload[0]), binary.BigEndian.Uint32(payload[1:5]), payload[5:], nil
}

// maxStatsLen bounds the encoding of query Stats: the algorithm byte and
// seven uvarints.
const maxStatsLen = 1 + 7*binary.MaxVarintLen64

// appendStats encodes query Stats.
func appendStats(b []byte, s uindex.Stats) []byte {
	b = append(b, byte(s.Algorithm))
	b = binary.AppendUvarint(b, uint64(s.PagesRead))
	b = binary.AppendUvarint(b, uint64(s.EntriesScanned))
	b = binary.AppendUvarint(b, uint64(s.Matches))
	b = binary.AppendUvarint(b, uint64(s.Intervals))
	b = binary.AppendUvarint(b, uint64(s.NodeCacheHits))
	b = binary.AppendUvarint(b, uint64(s.NodeCacheMisses))
	b = binary.AppendUvarint(b, uint64(s.BytesDecoded))
	return b
}

func readStats(b []byte) (uindex.Stats, []byte, error) {
	var s uindex.Stats
	if len(b) < 1 {
		return s, nil, errShortFrame
	}
	s.Algorithm = uindex.Algorithm(b[0])
	b = b[1:]
	var err error
	for _, dst := range []*int{
		&s.PagesRead, &s.EntriesScanned, &s.Matches, &s.Intervals,
		&s.NodeCacheHits, &s.NodeCacheMisses,
	} {
		var v uint64
		if v, b, err = readUvarint(b); err != nil {
			return s, nil, err
		}
		*dst = int(v)
	}
	var bd uint64
	if bd, b, err = readUvarint(b); err != nil {
		return s, nil, err
	}
	s.BytesDecoded = int64(bd)
	return s, b, nil
}

// queryPrefixLen bounds the part of a query response frame that precedes
// the matches: the frame length, the response header, the stats, and the
// match count. The stats and count are known only after the scan, so the
// server streams the matches in behind this many reserved bytes and writes
// the prefix right-aligned into the gap once the query is done; the frame
// is then sent from where the prefix starts, with no copy of the matches.
const queryPrefixLen = frameHeaderLen + responseHeaderLen + maxStatsLen + binary.MaxVarintLen64

// startQueryFrame starts a query response frame in b's backing array,
// reserving its prefix; the matches follow, each appended with appendMatch.
// The result set on the wire is the match count, then the matches.
func startQueryFrame(b []byte) []byte {
	return append(b[:0], make([]byte, queryPrefixLen)...)
}

// finishQueryFrame fills in the prefix of a query response frame started
// with startQueryFrame and holding n matches, returning the frame.
func finishQueryFrame(b []byte, id uint32, stats uindex.Stats, n int) []byte {
	var pre [queryPrefixLen]byte
	p := appendResponseFrame(pre[:0], CodeOK, id)
	p = appendStats(p, stats)
	p = binary.AppendUvarint(p, uint64(n))
	start := queryPrefixLen - len(p)
	copy(b[start:], p)
	return b[start:]
}

// appendMatch encodes one match: the typed value and the (code, oid) path,
// terminal-first like the engine.
func appendMatch(b []byte, m uindex.Match) ([]byte, error) {
	b, err := appendValue(b, m.Value)
	if err != nil {
		return nil, err
	}
	b = binary.AppendUvarint(b, uint64(len(m.Path)))
	for _, pe := range m.Path {
		b = appendString(b, string(pe.Code))
		b = binary.BigEndian.AppendUint32(b, uint32(pe.OID))
	}
	return b, nil
}

// Smallest encodings, which bound how many elements the remaining bytes of
// a frame can hold: a match is at least an empty string value (tag, zero
// length) and an empty path (zero count); a path entry is at least a code
// length and an oid.
const (
	minMatchLen     = 3
	minPathEntryLen = 1 + 4
)

// readMatches decodes a result set without allocating per match. Counts
// are untrusted, so the result slice is presized to at most what the
// remaining bytes can encode. Matches of one attribute-value cluster
// arrive consecutively with identical value bytes; since value encodings
// are self-delimiting, a match whose bytes start with the previous value's
// whole encoding has that same value, and shares its decoded (immutable)
// Value. Codes are validated and interned per call, and each Path is
// carved from a chunked arena, capped at its length so an append cannot
// overwrite the next match's.
func readMatches(b []byte) ([]uindex.Match, []byte, error) {
	n, b, err := readUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	ms := make([]uindex.Match, 0, min(n, uint64(len(b)/minMatchLen)))
	var (
		codes   encoding.CodeInterner
		paths   arena.Arena[uindex.PathEntry]
		prevEnc []byte // encoding of prev, aliasing the frame
		prev    any
	)
	for i := uint64(0); i < n; i++ {
		var m uindex.Match
		if prevEnc != nil && bytes.HasPrefix(b, prevEnc) {
			m.Value, b = prev, b[len(prevEnc):]
		} else {
			v, rest, err := readValue(b)
			if err != nil {
				return nil, nil, err
			}
			prevEnc, prev = b[:len(b)-len(rest)], v
			m.Value, b = v, rest
		}
		var plen uint64
		if plen, b, err = readUvarint(b); err != nil {
			return nil, nil, err
		}
		if plen > uint64(len(b)/minPathEntryLen) {
			return nil, nil, errShortFrame
		}
		if plen > 0 {
			m.Path = paths.Alloc(int(plen))
		}
		for j := range m.Path {
			var raw []byte
			if raw, b, err = readBytes(b); err != nil {
				return nil, nil, err
			}
			code, err := codes.Intern(raw)
			if err != nil {
				return nil, nil, err
			}
			var oid uint32
			if oid, b, err = readUint32(b); err != nil {
				return nil, nil, err
			}
			m.Path[j] = uindex.PathEntry{Code: code, OID: uindex.OID(oid)}
		}
		ms = append(ms, m)
	}
	return ms, b, nil
}

// appendBatchResult encodes an Apply result: the applied-operation count,
// then the OIDs assigned to the batch's inserts in operation order.
func appendBatchResult(b []byte, res uindex.BatchResult) []byte {
	b = binary.AppendUvarint(b, uint64(res.Applied))
	b = binary.AppendUvarint(b, uint64(len(res.OIDs)))
	for _, oid := range res.OIDs {
		b = binary.BigEndian.AppendUint32(b, uint32(oid))
	}
	return b
}

func readBatchResult(b []byte) (uindex.BatchResult, []byte, error) {
	var res uindex.BatchResult
	applied, b, err := readUvarint(b)
	if err != nil {
		return res, nil, err
	}
	res.Applied = int(applied)
	n, b, err := readUvarint(b)
	if err != nil {
		return res, nil, err
	}
	for i := uint64(0); i < n; i++ { // grown per element: n is untrusted
		var oid uint32
		if oid, b, err = readUint32(b); err != nil {
			return res, nil, err
		}
		res.OIDs = append(res.OIDs, uindex.OID(oid))
	}
	return res, b, nil
}

// codeOf maps an engine error to its wire code.
func codeOf(err error) Code {
	switch {
	case err == nil:
		return CodeOK
	case errors.Is(err, uindex.ErrIndexNotFound):
		return CodeIndexNotFound
	case errors.Is(err, uindex.ErrUnknownClass):
		return CodeUnknownClass
	case errors.Is(err, uindex.ErrSnapshotReleased):
		return CodeSnapshotReleased
	case errors.Is(err, uindex.ErrClosed):
		return CodeClosed
	case errors.Is(err, context.DeadlineExceeded):
		return CodeDeadline
	case errors.Is(err, context.Canceled):
		return CodeCanceled
	default:
		return CodeInternal
	}
}

// errOf maps a wire code back to a typed error the client surfaces;
// errors.Is against the facade sentinels works across the network.
func errOf(code Code, msg string) error {
	var base error
	switch code {
	case CodeOK:
		return nil
	case CodeBadRequest:
		base = ErrBadRequest
	case CodeIndexNotFound:
		base = uindex.ErrIndexNotFound
	case CodeUnknownClass:
		base = uindex.ErrUnknownClass
	case CodeClosed:
		base = uindex.ErrClosed
	case CodeSnapshotReleased:
		base = uindex.ErrSnapshotReleased
	case CodeRetryLater:
		base = ErrRetryLater
	case CodeDeadline:
		base = context.DeadlineExceeded
	case CodeCanceled:
		base = context.Canceled
	default:
		base = fmt.Errorf("server: internal error")
	}
	if msg == "" || msg == base.Error() {
		return base
	}
	return fmt.Errorf("%w: %s", base, msg)
}
