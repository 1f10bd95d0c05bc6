// Frame encoders. Every encoder appends a complete frame (magic, length,
// payload) to a caller-owned buffer and returns the extended slice; none
// allocates beyond growing dst, so a connection that reuses its buffer
// encodes for free at steady state.
package proto

// appendFrameHeader reserves the magic+length header and returns the
// payload start offset; patchFrameLen back-fills the length once the
// payload is complete.
func appendFrameHeader(dst []byte, magic byte) ([]byte, int) {
	dst = append(dst, magic, 0, 0, 0, 0)
	return dst, len(dst)
}

func patchFrameLen(dst []byte, payloadStart int) []byte {
	le.PutUint32(dst[payloadStart-4:payloadStart], uint32(len(dst)-payloadStart))
	return dst
}

func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v), byte(v>>8))
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// AppendGet appends a GET request frame.
func AppendGet(dst []byte, id uint64, key []byte) []byte {
	dst, start := appendFrameHeader(dst, FrameRequest)
	dst = appendU64(dst, id)
	dst = append(dst, byte(OpGet))
	dst = appendU16(dst, uint16(len(key)))
	dst = append(dst, key...)
	return patchFrameLen(dst, start)
}

// AppendPut appends a PUT request frame.
func AppendPut(dst []byte, id uint64, key, value []byte) []byte {
	dst, start := appendFrameHeader(dst, FrameRequest)
	dst = appendU64(dst, id)
	dst = append(dst, byte(OpPut))
	dst = appendU16(dst, uint16(len(key)))
	dst = append(dst, key...)
	dst = appendU32(dst, uint32(len(value)))
	dst = append(dst, value...)
	return patchFrameLen(dst, start)
}

// AppendDel appends a DEL request frame.
func AppendDel(dst []byte, id uint64, key []byte) []byte {
	dst, start := appendFrameHeader(dst, FrameRequest)
	dst = appendU64(dst, id)
	dst = append(dst, byte(OpDel))
	dst = appendU16(dst, uint16(len(key)))
	dst = append(dst, key...)
	return patchFrameLen(dst, start)
}

// AppendResponse appends r as a response frame.
func AppendResponse(dst []byte, r *Response) []byte {
	dst, start := appendFrameHeader(dst, FrameResponse)
	dst = appendU64(dst, r.ID)
	var flags byte
	if r.OK {
		flags |= flagOK
	}
	if r.Crashed {
		flags |= flagCrashed
	}
	if r.Err != "" {
		flags |= flagError
	}
	dst = append(dst, flags)
	switch {
	case r.Err != "":
		dst = appendU16(dst, uint16(len(r.Err)))
		dst = append(dst, r.Err...)
	case len(r.Results) > 0:
		dst = appendResult(dst, &r.Results[0])
	default:
		var zero Result
		dst = appendResult(dst, &zero)
	}
	return patchFrameLen(dst, start)
}

func appendResult(dst []byte, res *Result) []byte {
	var rf byte
	if res.Found {
		rf |= rflagFound
	}
	if res.HasValue {
		rf |= rflagValue
	}
	dst = append(dst, rf)
	if res.HasValue {
		dst = appendU32(dst, uint32(len(res.Value)))
		dst = append(dst, res.Value...)
	}
	return dst
}
