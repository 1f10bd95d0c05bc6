// Package proto is pmkvd's pipelined binary wire protocol: length-
// prefixed frames carrying client-chosen request ids, so one connection
// can keep many requests in flight and receive their responses out of
// order — the transport analogue of the paper's pipelined epochs, which
// overlap the persist latency of batch k with the execution of batch
// k+1. A frame carries one operation; requests batch into one socket
// write, and a response is keyed by id rather than by position, so the
// server acks each operation the moment its shard's durable watermark
// covers it.
//
// Frame layout (all integers little-endian):
//
//	frame    := magic(1) | len(4) | payload(len)
//	magic    =  0xB1 request, 0xB2 response
//
//	request  := id(8) | opcode(1) | body
//	  GET  (1): klen(2) key
//	  PUT  (2): klen(2) key vlen(4) value
//	  DEL  (3): klen(2) key
//
//	response := id(8) | flags(1) | body
//	  flags: 0x01 OK, 0x02 crashed, 0x04 error
//	  error body : elen(2) message            (flags has 0x04)
//	  result body: rflags(1) [ vlen(4) value ]
//	  rflags: 0x01 found, 0x02 value follows
//
// The decoder and encoder are zero-allocation at steady state: parsing
// sub-slices the frame payload into a caller-reused Request or Response,
// and encoding appends into a caller-owned buffer — both guarded by
// AllocsPerRun tests.
package proto

import (
	"encoding/binary"
	"fmt"
)

// Frame magics.
const (
	FrameRequest  byte = 0xB1
	FrameResponse byte = 0xB2
)

// Opcode enumerates request operations.
type Opcode uint8

const (
	OpGet Opcode = 1
	OpPut Opcode = 2
	OpDel Opcode = 3
)

// String implements fmt.Stringer (the tracer's Meta.Op field).
func (o Opcode) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDel:
		return "del"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Wire limits. Violations are protocol errors: the peer is malformed or
// hostile, and the connection should be closed.
const (
	// MaxKey bounds one key (the u16 length field's ceiling).
	MaxKey = 1<<16 - 1
	// MaxValue bounds one value.
	MaxValue = 1 << 20
	// MaxPayload bounds one frame's payload.
	MaxPayload = 1 << 24
)

// Response flag bits.
const (
	flagOK      = 0x01
	flagCrashed = 0x02
	flagError   = 0x04

	rflagFound = 0x01
	rflagValue = 0x02
)

// Request is one decoded request frame. Value is nil for ops that carry
// none (GET/DEL). Key and Value sub-slice the frame payload: they are
// valid only until the payload buffer is reused.
type Request struct {
	ID    uint64
	Op    Opcode
	Key   []byte
	Value []byte
}

// Result is one operation's outcome inside a response.
type Result struct {
	Found bool
	// HasValue reports whether a value field follows (GET hits). An
	// empty value is encoded as absent.
	HasValue bool
	Value    []byte
}

// Response is one decoded (or to-be-encoded) response frame. When Err is
// non-empty the response is an error reply and Results is ignored;
// otherwise Results[0] answers the op, and a decoded Results holds
// exactly that one entry.
type Response struct {
	ID      uint64
	OK      bool
	Crashed bool
	Err     string
	Results []Result
}

// le is the wire byte order.
var le = binary.LittleEndian
