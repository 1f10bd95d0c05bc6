package proto

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/frames.golden")

// TestFramesGolden pins the wire bytes of every request and response
// shape, one "name: hex" line each, so a codec change that alters what a
// peer sees fails here. A frame longer than 64 bytes is pinned by its
// first 32 bytes, its length and its sha256.
func TestFramesGolden(t *testing.T) {
	maxKey := bytes.Repeat([]byte("k"), MaxKey)
	frames := []struct {
		name  string
		frame []byte
	}{
		{"get", AppendGet(nil, 1, []byte("k1"))},
		{"get max key", AppendGet(nil, 1<<63+7, maxKey)},
		{"put", AppendPut(nil, 2, []byte("user:7"), []byte("alice"))},
		{"put empty value", AppendPut(nil, 3, []byte("empty"), nil)},
		{"put max key", AppendPut(nil, 4, maxKey, []byte("v"))},
		{"del", AppendDel(nil, 5, []byte("gone"))},
		{"ok found value", AppendResponse(nil, &Response{ID: 1, OK: true, Results: []Result{{Found: true, HasValue: true, Value: []byte("alice")}}})},
		{"ok found no value", AppendResponse(nil, &Response{ID: 2, OK: true, Results: []Result{{Found: true}}})},
		{"ok not found", AppendResponse(nil, &Response{ID: 3, OK: true, Results: []Result{{}}})},
		{"error", AppendResponse(nil, &Response{ID: 4, Err: "draining"})},
		{"crashed", AppendResponse(nil, &Response{ID: 5, OK: true, Crashed: true, Results: []Result{{Found: true}}})},
	}
	var got bytes.Buffer
	for _, f := range frames {
		if len(f.frame) <= 64 {
			fmt.Fprintf(&got, "%s: %x\n", f.name, f.frame)
		} else {
			fmt.Fprintf(&got, "%s: %x... (%d bytes, sha256 %x)\n", f.name, f.frame[:32], len(f.frame), sha256.Sum256(f.frame))
		}
	}
	path := filepath.Join("testdata", "frames.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("wire bytes differ from %s (run with -update to regenerate)\ngot:\n%s", path, got.Bytes())
	}
}

// parseOneRequest frames+parses through the real reader path.
func parseOneRequest(t *testing.T, frame []byte) (*Request, error) {
	t.Helper()
	fr := NewFrameReader(bufio.NewReader(bytes.NewReader(frame)))
	magic, payload, err := fr.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if magic != FrameRequest {
		t.Fatalf("magic = 0x%02x, want request", magic)
	}
	var req Request
	return &req, ParseRequest(payload, &req)
}

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{ID: 1, Op: OpGet, Key: []byte("k1")},
		{ID: 1<<63 + 7, Op: OpPut, Key: []byte("user:7"), Value: []byte("alice")},
		{ID: 0, Op: OpPut, Key: []byte("empty"), Value: []byte{}},
		{ID: 5, Op: OpPut, Key: []byte("y"), Value: bytes.Repeat([]byte("v"), 300)},
		{ID: 3, Op: OpDel, Key: []byte("gone")},
	}
	for _, in := range cases {
		frame := appendRequest(nil, &in)
		got, err := parseOneRequest(t, frame)
		if err != nil {
			t.Fatalf("ParseRequest(%v): %v", in.Op, err)
		}
		if got.ID != in.ID || got.Op != in.Op || !bytes.Equal(got.Key, in.Key) ||
			!bytes.Equal(got.Value, in.Value) || (got.Value == nil) != (in.Value == nil) {
			t.Fatalf("round trip: %+v -> %+v", in, got)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{ID: 1, OK: true, Results: []Result{{Found: true, HasValue: true, Value: []byte("alice")}}},
		{ID: 2, OK: true, Results: []Result{{Found: true}}},
		{ID: 3, OK: true, Results: []Result{{}}},
		{ID: 4, OK: true, Crashed: true, Results: []Result{{Found: true}}},
		{ID: 5, Err: "draining"},
	}
	for _, in := range cases {
		frame := AppendResponse(nil, &in)
		fr := NewFrameReader(bufio.NewReader(bytes.NewReader(frame)))
		magic, payload, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if magic != FrameResponse {
			t.Fatalf("magic = 0x%02x", magic)
		}
		var got Response
		if err := ParseResponse(payload, &got); err != nil {
			t.Fatalf("ParseResponse: %v", err)
		}
		if got.ID != in.ID || got.OK != in.OK || got.Crashed != in.Crashed ||
			got.Err != in.Err || len(got.Results) != wantResults(&in) {
			t.Fatalf("round trip: %+v -> %+v", in, got)
		}
		for i := range got.Results {
			w := in.Results[i]
			g := got.Results[i]
			if g.Found != w.Found || g.HasValue != w.HasValue || !bytes.Equal(g.Value, w.Value) {
				t.Fatalf("result %d: %+v -> %+v", i, w, g)
			}
		}
	}
}

func wantResults(r *Response) int {
	if r.Err != "" {
		return 0
	}
	return len(r.Results)
}

func TestMalformedFrames(t *testing.T) {
	cases := []struct {
		name  string
		bytes []byte
		want  error
	}{
		{"bad magic", []byte{0x7B, 0, 0, 0, 0}, ErrBadMagic},
		{"oversized", append([]byte{FrameRequest}, 0xff, 0xff, 0xff, 0xff), ErrFrameSize},
		{"short header", []byte{FrameRequest, 1}, io.ErrUnexpectedEOF},
		{"short payload", []byte{FrameRequest, 9, 0, 0, 0, 1, 2}, io.ErrUnexpectedEOF},
	}
	for _, tc := range cases {
		fr := NewFrameReader(bufio.NewReader(bytes.NewReader(tc.bytes)))
		_, _, err := fr.Next()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestMalformedRequestPayloads(t *testing.T) {
	var req Request
	cases := []struct {
		name    string
		payload []byte
		want    error
	}{
		{"empty", nil, ErrTruncated},
		{"id only", make([]byte, 8), ErrTruncated},
		{"bad opcode", append(make([]byte, 8), 99), ErrBadOpcode},
		{"get no key", append(make([]byte, 8), byte(OpGet)), ErrTruncated},
		{"get key truncated", append(make([]byte, 8), byte(OpGet), 5, 0, 'a'), ErrTruncated},
		{"put no value", append(make([]byte, 8), byte(OpPut), 1, 0, 'k'), ErrTruncated},
		{"retired mget opcode", append(make([]byte, 8), 4, 1, 0, 'k'), ErrBadOpcode},
		{"retired mset opcode", append(make([]byte, 8), 5, 1, 0, 'k', 1, 0, 0, 0, 'v'), ErrBadOpcode},
		{"trailing bytes", append(append(make([]byte, 8), byte(OpGet), 1, 0, 'k'), 0xEE), ErrTrailing},
	}
	for _, tc := range cases {
		if err := ParseRequest(tc.payload, &req); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestParseRequestZeroAlloc guards the server's per-frame hot path:
// decoding must not allocate.
func TestParseRequestZeroAlloc(t *testing.T) {
	frames := [][]byte{
		AppendPut(nil, 1, []byte("user:0001"), bytes.Repeat([]byte("v"), 64)),
		AppendGet(nil, 2, []byte("user:0002")),
		AppendDel(nil, 5, []byte("user:0003")),
	}
	payloads := make([][]byte, len(frames))
	for i, f := range frames {
		payloads[i] = f[5:]
	}
	var req Request
	allocs := testing.AllocsPerRun(200, func() {
		for _, p := range payloads {
			if err := ParseRequest(p, &req); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("ParseRequest allocates %.1f times per run; want 0", allocs)
	}
}

// TestAppendResponseZeroAlloc guards the server's per-response hot path.
func TestAppendResponseZeroAlloc(t *testing.T) {
	resps := []Response{
		{ID: 1, OK: true, Results: []Result{{Found: true, HasValue: true, Value: []byte("value-bytes-0123456789")}}},
		{ID: 2, OK: true, Results: []Result{{Found: true}}},
		{ID: 3, Err: "draining"},
	}
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		buf = buf[:0]
		for i := range resps {
			buf = AppendResponse(buf, &resps[i])
		}
		if len(buf) == 0 {
			t.Fatal("no output")
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendResponse allocates %.1f times per run; want 0", allocs)
	}
}

// TestFrameReaderZeroAlloc: a warmed FrameReader decoding a stream of
// frames performs no per-frame allocations (the payload buffer is
// reused), so the read half of a pipelined connection allocates only at
// the engine boundary, not in the codec.
func TestFrameReaderZeroAlloc(t *testing.T) {
	var stream []byte
	for i := 0; i < 16; i++ {
		stream = AppendPut(stream, uint64(i), []byte("key-000042"), bytes.Repeat([]byte("v"), 128))
	}
	rd := bytes.NewReader(stream)
	br := bufio.NewReaderSize(rd, 64<<10)
	fr := NewFrameReader(br)
	var req Request
	// Warm the payload buffer.
	rd.Reset(stream)
	br.Reset(rd)
	for {
		_, p, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := ParseRequest(p, &req); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(stream)
		br.Reset(rd)
		for {
			_, p, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := ParseRequest(p, &req); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("frame decode allocates %.1f times per run; want 0", allocs)
	}
}

func FuzzParseRequest(f *testing.F) {
	f.Add(AppendPut(nil, 7, []byte("k"), []byte("v"))[5:])
	f.Add(append(make([]byte, 8), 4, 1, 0, 'a')) // the retired MGET opcode
	f.Add([]byte{})
	f.Add(make([]byte, 9))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var req Request
		if err := ParseRequest(payload, &req); err != nil {
			return
		}
		// Parsed requests must be internally consistent and re-encodable
		// to a parseable frame.
		if (req.Op == OpPut) != (req.Value != nil) {
			t.Fatalf("inconsistent parse: %v with value %v", req.Op, req.Value != nil)
		}
		frame := appendRequest(nil, &req)
		var again Request
		if err := ParseRequest(frame[5:], &again); err != nil {
			t.Fatalf("re-encode not parseable: %v", err)
		}
		if again.ID != req.ID || again.Op != req.Op || !bytes.Equal(again.Key, req.Key) || !bytes.Equal(again.Value, req.Value) {
			t.Fatalf("re-encode changed the request")
		}
	})
}

func FuzzParseResponse(f *testing.F) {
	f.Add(AppendResponse(nil, &Response{ID: 1, OK: true, Results: []Result{{Found: true, HasValue: true, Value: []byte("v")}}})[5:])
	f.Add(AppendResponse(nil, &Response{ID: 2, Err: "x"})[5:])
	f.Fuzz(func(t *testing.T, payload []byte) {
		var resp Response
		if err := ParseResponse(payload, &resp); err != nil {
			return
		}
		frame := AppendResponse(nil, &resp)
		var again Response
		if err := ParseResponse(frame[5:], &again); err != nil {
			t.Fatalf("re-encode not parseable: %v", err)
		}
	})
}

// appendRequest appends r as a request frame: the generic form of the
// typed appenders.
func appendRequest(dst []byte, r *Request) []byte {
	switch r.Op {
	case OpGet:
		return AppendGet(dst, r.ID, r.Key)
	case OpPut:
		return AppendPut(dst, r.ID, r.Key, r.Value)
	default:
		return AppendDel(dst, r.ID, r.Key)
	}
}
