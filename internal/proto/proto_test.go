package proto

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
)

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
		{ID: 1, Op: OpGet, Keys: [][]byte{[]byte("k1")}, Vals: [][]byte{nil}},
		{ID: 1<<63 + 7, Op: OpPut, Keys: [][]byte{[]byte("user:7")}, Vals: [][]byte{[]byte("alice")}},
		{ID: 0, Op: OpPut, Keys: [][]byte{[]byte("empty")}, Vals: [][]byte{{}}},
		{ID: 3, Op: OpDel, Keys: [][]byte{[]byte("gone")}, Vals: [][]byte{nil}},
		{ID: 4, Op: OpMGet, Keys: [][]byte{[]byte("a"), []byte("b"), []byte("c")}, Vals: [][]byte{nil, nil, nil}},
		{ID: 5, Op: OpMSet,
			Keys: [][]byte{[]byte("x"), []byte("y")},
			Vals: [][]byte{[]byte("1"), bytes.Repeat([]byte("v"), 300)}},
	}
	for _, in := range cases {
		frame := appendRequest(nil, &in)
		got, err := parseOneRequest(t, frame)
		if err != nil {
			t.Fatalf("ParseRequest(%v): %v", in.Op, err)
		}
		if got.ID != in.ID || got.Op != in.Op || len(got.Keys) != len(in.Keys) {
			t.Fatalf("round trip changed shape: %+v -> %+v", in, got)
		}
		for i := range in.Keys {
			if !bytes.Equal(got.Keys[i], in.Keys[i]) {
				t.Fatalf("key %d: %q -> %q", i, in.Keys[i], got.Keys[i])
			}
			if len(got.Vals[i]) != len(in.Vals[i]) || (len(in.Vals[i]) > 0 && !bytes.Equal(got.Vals[i], in.Vals[i])) {
				t.Fatalf("val %d mismatch", i)
			}
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
		{ID: 6, OK: true, Multi: true, Results: []Result{
			{Found: true, HasValue: true, Value: []byte("v1")},
			{},
			{Found: true},
		}},
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
			got.Multi != in.Multi || got.Err != in.Err || len(got.Results) != wantResults(&in) {
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
		{"mget zero ops", append(make([]byte, 8), byte(OpMGet), 0, 0), ErrEmptyMulti},
		{"trailing bytes", append(append(make([]byte, 8), byte(OpGet), 1, 0, 'k'), 0xEE), ErrTrailing},
	}
	for _, tc := range cases {
		if err := ParseRequest(tc.payload, &req); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestParseRequestZeroAlloc guards the server's per-frame hot path: once
// the Request's slice headers have grown to their working size, decoding
// must not allocate.
func TestParseRequestZeroAlloc(t *testing.T) {
	frames := [][]byte{
		AppendPut(nil, 1, []byte("user:0001"), bytes.Repeat([]byte("v"), 64)),
		AppendGet(nil, 2, []byte("user:0002")),
		AppendMSet(nil, 3,
			[][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")},
			[][]byte{[]byte("1"), []byte("2"), []byte("3"), []byte("4")}),
		AppendMGet(nil, 4, [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}),
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
		{ID: 4, OK: true, Multi: true, Results: []Result{{Found: true, HasValue: true, Value: []byte("v")}, {}}},
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
	f.Add(AppendMGet(nil, 8, [][]byte{[]byte("a"), []byte("b")})[5:])
	f.Add([]byte{})
	f.Add(make([]byte, 9))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var req Request
		if err := ParseRequest(payload, &req); err != nil {
			return
		}
		// Parsed requests must be internally consistent and re-encodable
		// to a parseable frame.
		if len(req.Keys) == 0 || len(req.Keys) != len(req.Vals) {
			t.Fatalf("inconsistent parse: %d keys, %d vals", len(req.Keys), len(req.Vals))
		}
		frame := appendRequest(nil, &req)
		var again Request
		if err := ParseRequest(frame[5:], &again); err != nil {
			t.Fatalf("re-encode not parseable: %v", err)
		}
		if again.ID != req.ID || again.Op != req.Op || len(again.Keys) != len(req.Keys) {
			t.Fatalf("re-encode changed shape")
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
		return AppendGet(dst, r.ID, r.Keys[0])
	case OpPut:
		return AppendPut(dst, r.ID, r.Keys[0], r.Vals[0])
	case OpDel:
		return AppendDel(dst, r.ID, r.Keys[0])
	case OpMGet:
		return AppendMGet(dst, r.ID, r.Keys)
	case OpMSet:
		return AppendMSet(dst, r.ID, r.Keys, r.Vals)
	}
	// Unknown opcodes still frame (the server answers them with an error
	// response), keyless.
	dst, start := appendFrameHeader(dst, FrameRequest)
	dst = appendU64(dst, r.ID)
	dst = append(dst, byte(r.Op))
	return patchFrameLen(dst, start)
}
