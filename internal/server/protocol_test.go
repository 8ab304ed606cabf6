package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"

	uindex "repro"
	"repro/internal/encoding"
)

// frameOf builds a frame around payload for writeFrame.
func frameOf(payload []byte) []byte {
	return append(make([]byte, frameHeaderLen), payload...)
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {0x01}, bytes.Repeat([]byte{0xAB}, 4096)}
	for _, p := range payloads {
		if err := writeFrame(&buf, frameOf(p)); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
	}
	for _, want := range payloads {
		got, err := readFrame(&buf, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame mismatch: got %d bytes, want %d", len(got), len(want))
		}
	}
}

func TestReadFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	binary.Write(&buf, binary.BigEndian, uint32(1<<30))
	_, err := readFrame(&buf, 1<<16)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []request{
		{op: OpPing, id: 1},
		{op: OpCheckpoint, id: 2},
		{op: OpRefresh, id: 3},
		{op: OpQuery, id: 4, index: "color", query: "(Color=Red, C5A*)"},
		{op: OpQuery, id: 5, index: "age", query: "(Age=[46-], ?, C2A*)", alg: uindex.Forward},
		{op: OpInsert, id: 6, class: "Automobile", attrs: uindex.Attrs{
			"Name": "Uno", "Color": "White", "ManufacturedBy": uindex.OID(5),
			"Age": uint64(7), "Neg": int64(-3), "Score": 1.5,
		}},
		{op: OpSet, id: 7, oid: 9, attr: "Color", value: "Red"},
		{op: OpDelete, id: 8, oid: 12},
		{op: OpBatch, id: 9, ops: []uindex.BatchOp{
			{Kind: uindex.BatchInsert, Class: "Automobile", Attrs: uindex.Attrs{"Color": "Red"}},
			{Kind: uindex.BatchSet, OID: 4, Attr: "Color", Value: "Blue"},
			{Kind: uindex.BatchDelete, OID: 7},
		}},
	}
	for _, want := range reqs {
		payload, err := appendRequest(nil, want)
		if err != nil {
			t.Fatalf("appendRequest(%v): %v", want.op, err)
		}
		got, err := decodeRequest(payload)
		if err != nil {
			t.Fatalf("decodeRequest(%v): %v", want.op, err)
		}
		if got.attrs == nil && want.attrs != nil && len(want.attrs) == 0 {
			got.attrs = uindex.Attrs{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestEncodeRequestIntNormalizesToInt64(t *testing.T) {
	payload, err := appendRequest(nil, request{op: OpSet, id: 1, oid: 2, attr: "Age", value: 46})
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRequest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.value != int64(46) {
		t.Fatalf("want int64(46), got %T %v", got.value, got.value)
	}
}

func TestDecodeRequestRejects(t *testing.T) {
	mk := func(op Op, body ...byte) []byte {
		return append([]byte{byte(op), 0, 0, 0, 1}, body...)
	}
	cases := [][]byte{
		nil,                  // empty
		{byte(OpPing)},       // short header
		mk(Op(0)),            // unknown opcode
		mk(Op(99)),           // unknown opcode
		mk(OpPing, 0x00),     // trailing bytes
		mk(OpQuery),          // missing flags
		mk(OpQuery, 0, 0xFF), // string length overruns body
		mk(OpInsert, 1, 'C'), // missing attr count
		mk(OpInsert, 1, 'C', 0xFF, 0xFF, 0xFF, 0xFF, 0x7F), // hostile attr count
		mk(OpSet, 0, 0, 0, 1),                              // missing attr name
		mk(OpDelete, 0, 0, 0),                              // short oid
		mk(OpSet, 0, 0, 0, 1, 1, 'A', 200),                 // unknown value tag
		mk(OpBatch),                                        // missing op count
		mk(OpBatch, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F),          // hostile op count
		mk(OpBatch, 1, 99),                                 // unknown batch op kind
		mk(OpBatch, 1, 3, 0, 0, 0),                         // delete with short oid
		mk(OpBatch, 1, 3, 0, 0, 0, 1, 0xAA),                // trailing bytes
	}
	for i, payload := range cases {
		if _, err := decodeRequest(payload); err == nil {
			t.Errorf("case %d: decodeRequest accepted malformed payload % x", i, payload)
		}
	}
}

func TestStatsRoundTrip(t *testing.T) {
	want := uindex.Stats{
		Algorithm: uindex.Forward, PagesRead: 17, EntriesScanned: 301, Matches: 4,
		Intervals: 2, NodeCacheHits: 9, NodeCacheMisses: 1, BytesDecoded: 8192,
	}
	got, rest, err := readStats(appendStats(nil, want))
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("stats mismatch: got %+v want %+v (rest %d)", got, want, len(rest))
	}
}

// appendMatches encodes a whole result set — count, then each match — as
// the client's readMatches expects it; the server writes the same bytes
// with startQueryFrame, appendMatch and finishQueryFrame.
func appendMatches(b []byte, ms []uindex.Match) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(ms)))
	for _, m := range ms {
		var err error
		if b, err = appendMatch(b, m); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// matchesFixture is the result set of the round-trip and golden tests: two
// values with paths of different lengths and a value with no path.
func matchesFixture() []uindex.Match {
	return []uindex.Match{
		{Value: "Red", Path: []uindex.PathEntry{
			{Code: encoding.Code("5A"), OID: 9}, {Code: encoding.Code("2A1"), OID: 4},
		}},
		{Value: uint64(46), Path: []uindex.PathEntry{{Code: encoding.Code("1"), OID: 3}}},
		{Value: math.Pi},
	}
}

// Golden wire bytes of matchesFixture, alone and as a complete query
// response frame (id 7, goldenStats). They pin protocol version 1's
// encoding: a change here breaks every deployed client.
const (
	goldenMatches = "0300035265640202354100000009033241310000000401000000000000002e0101310000000303400921fb54442d1800"
	goldenFrame   = "0000003f00000000070111ad020302090180400300035265640202354100000009033241310000000401000000000000002e0101310000000303400921fb54442d1800"
)

var goldenStats = uindex.Stats{
	Algorithm: uindex.Forward, PagesRead: 17, EntriesScanned: 301, Matches: 3,
	Intervals: 2, NodeCacheHits: 9, NodeCacheMisses: 1, BytesDecoded: 8192,
}

func TestMatchesRoundTrip(t *testing.T) {
	want := matchesFixture()
	b, err := appendMatches(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(b); got != goldenMatches {
		t.Fatalf("wire bytes changed:\n got %s\nwant %s", got, goldenMatches)
	}
	got, rest, err := readMatches(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("matches mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestQueryFrameGolden builds a query response the way the server streams
// it — matches behind a reserved prefix, the prefix filled in afterwards —
// and checks the frame on the wire byte for byte.
func TestQueryFrameGolden(t *testing.T) {
	b := startQueryFrame(nil)
	for _, m := range matchesFixture() {
		var err error
		if b, err = appendMatch(b, m); err != nil {
			t.Fatal(err)
		}
	}
	var w bytes.Buffer
	if err := writeFrame(&w, finishQueryFrame(b, 7, goldenStats, 3)); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(w.Bytes()); got != goldenFrame {
		t.Fatalf("query frame changed:\n got %s\nwant %s", got, goldenFrame)
	}
}

// TestReadMatchesPathsAreCapped checks the decoder's lifetime contract:
// every Path is its own capacity-capped slice, so appending to one match's
// Path cannot overwrite the next match's.
func TestReadMatchesPathsAreCapped(t *testing.T) {
	ms, _, err := readMatches(goldenMatchesBytes(t))
	if err != nil {
		t.Fatal(err)
	}
	next := append([]uindex.PathEntry(nil), ms[1].Path...)
	ms[0].Path = append(ms[0].Path, uindex.PathEntry{Code: "9", OID: 99})
	if !reflect.DeepEqual(ms[1].Path, next) {
		t.Fatalf("append to match 0's Path changed match 1's: %v, was %v", ms[1].Path, next)
	}
}

func goldenMatchesBytes(t testing.TB) []byte {
	b, err := hex.DecodeString(goldenMatches)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReadMatchesHostileCount feeds a short frame claiming 2^40 matches (and
// one claiming a 2^40-entry path): both must fail without allocating
// anywhere near what the counts claim.
func TestReadMatchesHostileCount(t *testing.T) {
	hostile := [][]byte{
		binary.AppendUvarint(nil, 1<<40),
		append(binary.AppendUvarint([]byte{1, tagUint64, 0, 0, 0, 0, 0, 0, 0, 1}, 1<<40), 0, 0, 0, 0, 0),
	}
	for i, b := range hostile {
		b = append(b, bytes.Repeat([]byte{0}, 64)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := readMatches(b); err == nil {
			t.Fatalf("case %d: hostile count decoded without error", i)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Fatalf("case %d: decoding allocated %d bytes", i, grew)
		}
	}
}

// TestReadMatchesAllocs bounds the client decoder's allocations on a
// 1,000-match frame shaped like a real result: runs of equal values, two
// path entries per match over a handful of class codes. The cost must not
// grow with the number of matches — a per-match value, code string or Path
// slice would cost thousands.
func TestReadMatchesAllocs(t *testing.T) {
	colors := []string{"Black", "Blue", "Green", "Red"}
	codes := []encoding.Code{"5A", "5A1", "5B"}
	ms := make([]uindex.Match, 1000)
	for i := range ms {
		ms[i] = uindex.Match{Value: colors[i*len(colors)/len(ms)], Path: []uindex.PathEntry{
			{Code: codes[i%len(codes)], OID: uindex.OID(i)}, {Code: "2A", OID: uindex.OID(i / 3)},
		}}
	}
	b, err := appendMatches(nil, ms)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := readMatches(b); err != nil {
			t.Fatal(err)
		}
	})
	// The result slice, about ten doubling arena chunks for 2,000 path
	// entries, the intern map with its 4 code strings, and 4 values
	// (string plus box).
	const limit = 30
	if allocs > limit {
		t.Fatalf("readMatches of 1,000 matches allocates %.0f times, limit %d", allocs, limit)
	}
	t.Logf("readMatches: %.0f allocs for %d matches", allocs, len(ms))
}

// FuzzResponse feeds the client's query response decoder — header, stats,
// matches — arbitrary payloads. It must never panic; hostile counts must
// fail without large allocations; and every result it accepts must survive
// a re-encode: decoding appendStats/appendMatches of it gives the same
// stats and matches back.
func FuzzResponse(f *testing.F) {
	frame, err := hex.DecodeString(goldenFrame)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame[frameHeaderLen:])
	seed := appendStats(appendResponseHeader(nil, CodeOK, 1), uindex.Stats{})
	f.Add(binary.AppendUvarint(append([]byte(nil), seed...), 1<<40))
	f.Add(append(append([]byte(nil), seed...), 0))
	f.Add(appendResponseHeader(nil, CodeBadRequest, 2))

	f.Fuzz(func(t *testing.T, payload []byte) {
		code, _, body, err := decodeResponseHeader(payload)
		if err != nil || code != CodeOK {
			return
		}
		stats, rest, err := readStats(body)
		if err != nil {
			return
		}
		back, tail, err := readStats(appendStats(nil, stats))
		if err != nil || len(tail) != 0 || back != stats {
			t.Fatalf("stats %+v re-decode to %+v (tail %d bytes, err %v)", stats, back, len(tail), err)
		}
		ms, _, err := readMatches(rest)
		if err != nil {
			return
		}
		enc, err := appendMatches(nil, ms)
		if err != nil {
			t.Fatalf("re-encode of decoded matches failed: %v", err)
		}
		again, tail, err := readMatches(enc)
		if err != nil || len(tail) != 0 || !sameMatches(again, ms) {
			t.Fatalf("matches %v re-decode to %v (tail %d bytes, err %v)", ms, again, len(tail), err)
		}
	})
}

// sameMatches compares decoded matches, floats by bit pattern so a NaN
// value equals itself.
func sameMatches(a, b []uindex.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Path, b[i].Path) {
			return false
		}
		fa, aok := a[i].Value.(float64)
		fb, bok := b[i].Value.(float64)
		if aok && bok {
			if math.Float64bits(fa) != math.Float64bits(fb) {
				return false
			}
		} else if a[i].Value != b[i].Value {
			return false
		}
	}
	return true
}

func TestCodeErrorMapping(t *testing.T) {
	cases := []struct {
		err  error
		code Code
	}{
		{uindex.ErrIndexNotFound, CodeIndexNotFound},
		{uindex.ErrUnknownClass, CodeUnknownClass},
		{uindex.ErrClosed, CodeClosed},
		{uindex.ErrSnapshotReleased, CodeSnapshotReleased},
		{context.DeadlineExceeded, CodeDeadline},
		{context.Canceled, CodeCanceled},
		{errors.New("boom"), CodeInternal},
	}
	for _, c := range cases {
		if got := codeOf(c.err); got != c.code {
			t.Errorf("codeOf(%v) = %d, want %d", c.err, got, c.code)
		}
		if c.code == CodeInternal {
			continue
		}
		back := errOf(c.code, "detail")
		if !errors.Is(back, c.err) {
			t.Errorf("errOf(%d) = %v, not errors.Is %v", c.code, back, c.err)
		}
	}
	if errOf(CodeOK, "") != nil {
		t.Error("errOf(CodeOK) should be nil")
	}
	if !errors.Is(errOf(CodeRetryLater, ""), ErrRetryLater) {
		t.Error("errOf(CodeRetryLater) should match ErrRetryLater")
	}
	if !errors.Is(errOf(CodeBadRequest, "parse"), ErrBadRequest) {
		t.Error("errOf(CodeBadRequest) should match ErrBadRequest")
	}
}

// FuzzFrame feeds the frame reader and request decoder arbitrary bytes:
// truncated frames, oversized length prefixes, bad opcodes, hostile counts.
// Neither may panic, and the frame reader must never allocate beyond the
// configured bound no matter what the length prefix claims.
func FuzzFrame(f *testing.F) {
	seed := func(req request) {
		if p, err := appendRequest(nil, req); err == nil {
			var buf bytes.Buffer
			writeFrame(&buf, frameOf(p))
			f.Add(buf.Bytes())
		}
	}
	seed(request{op: OpPing, id: 1})
	seed(request{op: OpQuery, id: 2, index: "color", query: "(Color=Red, C5A*)"})
	seed(request{op: OpInsert, id: 3, class: "Automobile", attrs: uindex.Attrs{"Color": "Red"}})
	seed(request{op: OpSet, id: 4, oid: 7, attr: "Age", value: uint64(46)})
	seed(request{op: OpDelete, id: 5, oid: 7})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})       // 4 GiB length prefix
	f.Add([]byte{0x00, 0x00, 0x00, 0x01})       // truncated body
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, 0x63}) // short body
	f.Add(append([]byte{0x00, 0x00, 0x00, 0x09, byte(OpInsert), 0, 0, 0, 1},
		0x01, 0x43, 0xFF, 0xFF)) // insert with hostile attr count

	const maxFrame = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			payload, err := readFrame(r, maxFrame)
			if err != nil {
				if errors.Is(err, ErrFrameTooLarge) || errors.Is(err, io.EOF) ||
					errors.Is(err, io.ErrUnexpectedEOF) {
					return
				}
				t.Fatalf("readFrame: unexpected error class %v", err)
			}
			if len(payload) > maxFrame {
				t.Fatalf("readFrame returned %d bytes, above the %d bound", len(payload), maxFrame)
			}
			req, err := decodeRequest(payload)
			if err != nil {
				continue
			}
			// Decoded requests must re-encode without error (tags and
			// opcodes are all known at this point).
			if _, err := appendRequest(nil, req); err != nil {
				t.Fatalf("re-encode of decoded request failed: %v", err)
			}
		}
	})
}

// TestQueryPrefixFitsLargestStats ties maxStatsLen to appendStats: with
// every Stats field at the value whose encoding is longest, the stats and
// the largest match count must still fit the prefix startQueryFrame
// reserves. A field added to appendStats without growing maxStatsLen fails
// here instead of panicking in finishQueryFrame on large stats.
func TestQueryPrefixFitsLargestStats(t *testing.T) {
	var s uindex.Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(-1) // widest uvarint once converted to uint64
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(math.MaxUint64)
		default:
			t.Fatalf("Stats.%s: kind %s not covered", v.Type().Field(i).Name, f.Kind())
		}
	}
	if n := len(appendStats(nil, s)); n > maxStatsLen {
		t.Fatalf("largest stats encode to %d bytes, maxStatsLen is %d", n, maxStatsLen)
	}
	frame := finishQueryFrame(startQueryFrame(nil), math.MaxUint32, s, math.MaxInt)
	code, id, body, err := decodeResponseHeader(frame[frameHeaderLen:])
	if err != nil || code != CodeOK || id != math.MaxUint32 {
		t.Fatalf("header: code %d id %d err %v", code, id, err)
	}
	got, rest, err := readStats(body)
	if err != nil || got.PagesRead != s.PagesRead || got.BytesDecoded != s.BytesDecoded {
		t.Fatalf("stats %+v, want %+v (err %v)", got, s, err)
	}
	if n, _, err := readUvarint(rest); err != nil || n != math.MaxInt {
		t.Fatalf("match count %d, err %v", n, err)
	}
}
