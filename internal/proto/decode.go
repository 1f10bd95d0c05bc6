// Frame decoders. FrameReader pulls whole frames off a buffered reader
// into one reused payload buffer; ParseRequest and ParseResponse then
// sub-slice that payload into caller-reused structs. Both sides are
// total: any byte stream either parses or returns a typed error — no
// input panics — and malformed frames are protocol errors that close the
// connection (length-prefixed framing makes resync after corruption
// meaningless).
package proto

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// Protocol errors. ErrBadMagic and friends wrap into the error returned
// to callers; all are terminal for the connection.
var (
	ErrBadMagic  = errors.New("proto: bad frame magic")
	ErrFrameSize = errors.New("proto: frame exceeds MaxPayload")
	ErrTruncated = errors.New("proto: truncated payload")
	ErrBadOpcode = errors.New("proto: unknown opcode")
	ErrLimits    = errors.New("proto: field exceeds wire limits")
	ErrTrailing  = errors.New("proto: trailing bytes after body")
)

// FrameReader reads frames off a buffered connection into a reused
// buffer. The payload returned by Next is valid only until the following
// Next call.
type FrameReader struct {
	r   *bufio.Reader
	buf []byte
	hdr [5]byte
}

// NewFrameReader wraps r.
func NewFrameReader(r *bufio.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// Next reads one frame, returning its magic byte and payload. io.EOF is
// returned bare at a clean frame boundary; a partial frame surfaces as
// io.ErrUnexpectedEOF.
func (fr *FrameReader) Next() (byte, []byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:1]); err != nil {
		return 0, nil, err
	}
	magic := fr.hdr[0]
	if magic != FrameRequest && magic != FrameResponse {
		return 0, nil, fmt.Errorf("%w: 0x%02x", ErrBadMagic, magic)
	}
	if _, err := io.ReadFull(fr.r, fr.hdr[1:5]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	n := le.Uint32(fr.hdr[1:5])
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrFrameSize, n)
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	fr.buf = fr.buf[:n]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return magic, fr.buf, nil
}

// cursor walks a payload with bounds checking.
type cursor struct {
	b   []byte
	off int
}

func (c *cursor) remain() int { return len(c.b) - c.off }

func (c *cursor) u8() (byte, bool) {
	if c.remain() < 1 {
		return 0, false
	}
	v := c.b[c.off]
	c.off++
	return v, true
}

func (c *cursor) u16() (uint16, bool) {
	if c.remain() < 2 {
		return 0, false
	}
	v := le.Uint16(c.b[c.off:])
	c.off += 2
	return v, true
}

func (c *cursor) u32() (uint32, bool) {
	if c.remain() < 4 {
		return 0, false
	}
	v := le.Uint32(c.b[c.off:])
	c.off += 4
	return v, true
}

func (c *cursor) u64() (uint64, bool) {
	if c.remain() < 8 {
		return 0, false
	}
	v := le.Uint64(c.b[c.off:])
	c.off += 8
	return v, true
}

func (c *cursor) bytes(n int) ([]byte, bool) {
	if n < 0 || c.remain() < n {
		return nil, false
	}
	v := c.b[c.off : c.off+n : c.off+n]
	c.off += n
	return v, true
}

// key reads a u16-length-prefixed key.
func (c *cursor) key() ([]byte, error) {
	n, ok := c.u16()
	if !ok {
		return nil, ErrTruncated
	}
	k, ok := c.bytes(int(n))
	if !ok {
		return nil, ErrTruncated
	}
	return k, nil
}

// value reads a u32-length-prefixed value, enforcing MaxValue.
func (c *cursor) value() ([]byte, error) {
	n, ok := c.u32()
	if !ok {
		return nil, ErrTruncated
	}
	if n > MaxValue {
		return nil, fmt.Errorf("%w: value %d bytes", ErrLimits, n)
	}
	v, ok := c.bytes(int(n))
	if !ok {
		return nil, ErrTruncated
	}
	return v, nil
}

// ParseRequest decodes a request payload into req. Key and Value alias
// payload.
func ParseRequest(payload []byte, req *Request) error {
	c := cursor{b: payload}
	id, ok := c.u64()
	if !ok {
		return ErrTruncated
	}
	opb, ok := c.u8()
	if !ok {
		return ErrTruncated
	}
	req.ID = id
	req.Op = Opcode(opb)
	req.Key, req.Value = nil, nil
	if req.Op != OpGet && req.Op != OpPut && req.Op != OpDel {
		return fmt.Errorf("%w: %d", ErrBadOpcode, opb)
	}
	k, err := c.key()
	if err != nil {
		return err
	}
	req.Key = k
	if req.Op == OpPut {
		if req.Value, err = c.value(); err != nil {
			return err
		}
	}
	if c.remain() != 0 {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, c.remain())
	}
	return nil
}

// ParseResponse decodes a response payload into resp, reusing resp's
// Results backing array. Value sub-slices alias payload.
func ParseResponse(payload []byte, resp *Response) error {
	c := cursor{b: payload}
	id, ok := c.u64()
	if !ok {
		return ErrTruncated
	}
	flags, ok := c.u8()
	if !ok {
		return ErrTruncated
	}
	resp.ID = id
	resp.OK = flags&flagOK != 0
	resp.Crashed = flags&flagCrashed != 0
	resp.Err = ""
	resp.Results = resp.Results[:0]
	if flags&flagError != 0 {
		n, ok := c.u16()
		if !ok {
			return ErrTruncated
		}
		e, ok := c.bytes(int(n))
		if !ok {
			return ErrTruncated
		}
		resp.Err = string(e)
	} else {
		res, err := c.result()
		if err != nil {
			return err
		}
		resp.Results = append(resp.Results, res)
	}
	if c.remain() != 0 {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, c.remain())
	}
	return nil
}

func (c *cursor) result() (Result, error) {
	rf, ok := c.u8()
	if !ok {
		return Result{}, ErrTruncated
	}
	res := Result{Found: rf&rflagFound != 0, HasValue: rf&rflagValue != 0}
	if res.HasValue {
		v, err := c.value()
		if err != nil {
			return Result{}, err
		}
		res.Value = v
	}
	return res, nil
}
