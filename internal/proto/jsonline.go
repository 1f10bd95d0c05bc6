package proto

// The JSON line protocol: one request object per line, one reply line
// per request, one request in flight per connection. It shares pmkvd's
// port with the binary frames (see the package comment for how the two
// are told apart) and is the debug and differential-oracle protocol:
//
//	-> {"op":"put","key":"user:7","value":"alice"}
//	<- {"ok":true,"found":true}
//	-> {"op":"get","key":"user:7"}
//	<- {"ok":true,"found":true,"value":"alice"}
//	-> {"op":"del","key":"user:7"}
//	<- {"ok":true,"found":true}
//	-> {"op":"stats"}
//	<- {"ok":true,"stats":{...aggregate...},"shards":[{...per shard...}]}

// LineRequest is one client line. Op is "get", "put", "del" or "stats".
type LineRequest struct {
	Op    string `json:"op"`
	Key   string `json:"key"`
	Value string `json:"value,omitempty"`
}

// LineResponse is one server reply line to a data op. Value is a string
// because encoding/json would base64 a []byte; invalid UTF-8 in a stored
// value is replaced with U+FFFD.
type LineResponse struct {
	OK      bool   `json:"ok"`
	Found   bool   `json:"found,omitempty"`
	Value   string `json:"value,omitempty"`
	Crashed bool   `json:"crashed,omitempty"`
	Error   string `json:"error,omitempty"`
}
