package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// Seeded generators. Every op stream is a pure function of
// (workload, seed, connection): the programs under test receive only the
// generated keys, values and op kinds, never the seed. The generator also
// knows what each GET must return, because a connection owns its keys
// (key id mod connections) and a session's requests execute in program
// order — so a live run is checked op by op, not just counted.

const (
	keyBytes   = 16
	valueBytes = 64
	// keySpace is the number of distinct keys every kv-* workload and the
	// engine script draw from; all of them are preloaded at version 1.
	keySpace = 4096
)

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDel
)

// kvOp is one generated operation. For a PUT, Ver is the version the
// value carries; for a GET it is the version the reply must carry
// (0 = the key is deleted and the reply must be not-found); for a DEL it
// is 0.
type kvOp struct {
	Kind opKind
	Key  uint32
	Ver  uint32
}

// kvMix describes a workload's traffic: op shares in percent and the key
// skew (zipf <= 1 means uniform).
type kvMix struct {
	GetPct, PutPct, DelPct int
	Zipf                   float64
}

var (
	mixWrite  = kvMix{GetPct: 45, PutPct: 50, DelPct: 5}
	mixRead   = kvMix{GetPct: 95, PutPct: 5, Zipf: 1.2}
	mixPaced  = kvMix{GetPct: 70, PutPct: 25, DelPct: 5, Zipf: 1.2}
	mixEngine = kvMix{GetPct: 30, PutPct: 60, DelPct: 10}
)

// rng is splitmix64: tiny, fast, and — unlike math/rand — ours, so a Go
// release cannot change a stream the baselines were measured on.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias at n <= 4096 is below
// 2^-52 and irrelevant here.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// streamSeed derives an independent stream per (workload, seed, conn).
func streamSeed(workload string, seed uint64, conn int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(workload))
	r := rng{s: h.Sum64() ^ seed*0x9e3779b97f4a7c15 ^ uint64(conn+1)*0xd1342543de82ef95}
	return r.next()
}

// kvStream generates one connection's ops and tracks what its GETs must
// observe.
type kvStream struct {
	r     rng
	mix   kvMix
	conn  int
	conns int
	ranks int       // keys this connection owns
	cdf   []float64 // Zipf CDF over ranks (nil = uniform)
	// last[rank] is the owned key's current version; 0 = deleted.
	last []uint32
	// issued[rank] is the highest version ever issued, so versions never
	// repeat across a delete.
	issued []uint32
}

// newKVStream builds connection conn's stream. preloaded says every key
// already holds version 1 when the stream starts (the kv-* workloads);
// otherwise every key starts absent (the engine script).
func newKVStream(workload string, seed uint64, conn, conns int, mix kvMix, preloaded bool) *kvStream {
	ranks := keySpace / conns
	s := &kvStream{
		r: rng{s: streamSeed(workload, seed, conn)}, mix: mix,
		conn: conn, conns: conns, ranks: ranks,
		last: make([]uint32, ranks), issued: make([]uint32, ranks),
	}
	if preloaded {
		for i := range s.last {
			s.last[i], s.issued[i] = 1, 1
		}
	}
	if mix.Zipf > 1 {
		s.cdf = make([]float64, ranks)
		var sum float64
		for i := range s.cdf {
			sum += 1 / math.Pow(float64(i+1), mix.Zipf)
			s.cdf[i] = sum
		}
		for i := range s.cdf {
			s.cdf[i] /= sum
		}
	}
	return s
}

func (s *kvStream) rank() int {
	if s.cdf == nil {
		return s.r.intn(s.ranks)
	}
	i := sort.SearchFloat64s(s.cdf, s.r.float())
	if i >= s.ranks {
		i = s.ranks - 1
	}
	return i
}

// next returns the stream's next op.
func (s *kvStream) next() kvOp {
	p := s.r.intn(100)
	rk := s.rank()
	key := uint32(rk*s.conns + s.conn)
	switch {
	case p < s.mix.GetPct:
		return kvOp{Kind: opGet, Key: key, Ver: s.last[rk]}
	case p < s.mix.GetPct+s.mix.PutPct:
		s.issued[rk]++
		s.last[rk] = s.issued[rk]
		return kvOp{Kind: opPut, Key: key, Ver: s.last[rk]}
	default:
		s.last[rk] = 0
		return kvOp{Kind: opDel, Key: key}
	}
}

// take returns the next n ops.
func (s *kvStream) take(n int) []kvOp {
	ops := make([]kvOp, n)
	for i := range ops {
		ops[i] = s.next()
	}
	return ops
}

// encodeOps serializes ops canonically (the determinism test compares
// these bytes; results files store their hash).
func encodeOps(ops []kvOp) []byte {
	b := make([]byte, 0, len(ops)*9)
	for _, op := range ops {
		b = append(b, byte(op.Kind))
		b = binary.LittleEndian.AppendUint32(b, op.Key)
		b = binary.LittleEndian.AppendUint32(b, op.Ver)
	}
	return b
}

// appendKey renders a key id as its 16-byte wire key.
func appendKey(dst []byte, id uint32) []byte {
	return fmt.Appendf(dst, "k%015d", id)
}

// keyTable pre-renders every key once; drivers index it instead of
// formatting on the hot path.
func keyTable() [][]byte {
	t := make([][]byte, keySpace)
	for i := range t {
		t[i] = appendKey(nil, uint32(i))
	}
	return t
}

// appendValue renders the 64-byte value for (key id, version): both
// numbers, then filler that depends on both, so a reply carrying another
// key's value, a stale version's bytes under a new version number, or a
// truncated value all fail checkValue.
func appendValue(dst []byte, id, ver uint32) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(id))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(ver))
	for i := 16; i < valueBytes; i++ {
		dst = append(dst, byte(id*131+ver*31+uint32(i)))
	}
	return dst
}

// checkValue decodes a value and verifies it is exactly what appendValue
// produces for the (id, version) it claims.
func checkValue(val []byte) (id, ver uint32, err error) {
	if len(val) != valueBytes {
		return 0, 0, fmt.Errorf("value is %d bytes, want %d", len(val), valueBytes)
	}
	id64 := binary.LittleEndian.Uint64(val)
	ver64 := binary.LittleEndian.Uint64(val[8:])
	if id64 >= keySpace || ver64 == 0 || ver64 > math.MaxUint32 {
		return 0, 0, fmt.Errorf("value names key %d version %d, outside what was issued", id64, ver64)
	}
	id, ver = uint32(id64), uint32(ver64)
	for i := 16; i < valueBytes; i++ {
		if val[i] != byte(id*131+ver*31+uint32(i)) {
			return id, ver, fmt.Errorf("value for key %d version %d is corrupt at byte %d", id, ver, i)
		}
	}
	return id, ver, nil
}

// checkGet verifies a GET reply against the generator's expectation.
func checkGet(op kvOp, found bool, val []byte) error {
	if op.Ver == 0 {
		if found {
			return fmt.Errorf("get key %d: found, but the key was deleted", op.Key)
		}
		return nil
	}
	if !found {
		return fmt.Errorf("get key %d: not found, want version %d", op.Key, op.Ver)
	}
	id, ver, err := checkValue(val)
	if err != nil {
		return fmt.Errorf("get key %d: %w", op.Key, err)
	}
	if id != op.Key {
		return fmt.Errorf("get key %d: reply carries key %d", op.Key, id)
	}
	if ver != op.Ver {
		return fmt.Errorf("get key %d: version %d, want %d", op.Key, ver, op.Ver)
	}
	return nil
}
