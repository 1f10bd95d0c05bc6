// Committed-state checkpoint: what the engine keeps of a write once it is
// durable. When the durable watermark passes a mutation record the engine
// verifies it, folds it in here — key → (value | tombstone, record index,
// entry lines and versions), newest entry per key — and drops the record
// itself, so audit state exists only while a persist is still owed.
// One structure serves both consumers: recovery (Verify, RecoveredState and
// dlImage are this checkpoint plus the unfolded tail) and the GET fast
// path, whose callers answer reads against precisely the durable prefix
// without touching the shard mailbox, the engine lock, or the simulated
// machine.
//
// The per-key map is an open-addressed array of atomic pointers to
// immutable entries, one slot per key: an entry is fully built before the
// single atomic store that puts it in its key's slot (the paper's
// publish-pointer idiom one level up), so a reader only observes states
// that were durable when that store happened. The one writer (whoever
// holds the engine lock) needs no CAS loop, and keys are never removed (a
// delete is a tombstone entry), so an empty slot ends a probe. Growth
// re-slots the entries into a table twice the size, published by one store.
package pmkv

import (
	"sync/atomic"

	"persistbarriers/internal/mem"
)

// cpEntry is one immutable checkpoint entry: the newest durable write of a
// key at the moment it was stored. found=false is a tombstone (the key's
// newest durable write is a delete). Nothing in an entry points into a
// per-mutation arena: val is the checkpoint's own copy and key is shared
// with the entry it replaced.
type cpEntry struct {
	key string
	val []byte
	// rec is the absolute mutation-record index of the write (the key's
	// order, and the checker's identity for it).
	rec   int
	found bool
	// core is the core that wrote the entry, whose free stack its lines go
	// back to (an int32 beside found, so the entry stays 88 bytes).
	core int32
	// span is the entry's lines (one for a tombstone), and lo and hi the
	// lowest and highest versions its stores committed at. While the entry
	// is its key's newest nothing else may write those lines, so a line of
	// span holding a version above hi was recycled too early (Verify check
	// 5); once a newer entry replaces this one, it goes on the engine's free
	// list. A line below lo never got the entry's store.
	span   lineSpan
	lo, hi mem.Version
}

// cpTable is one immutable-shape slot array: growth replaces the whole
// table, so mask and the slice header never change under a reader.
type cpTable struct {
	mask  uint64
	slots []atomic.Pointer[cpEntry]
}

// cpMinSlots is the initial table size.
const cpMinSlots = 64

// dlStub is what a folded write leaves behind for the
// durable-linearizability checker (Config.Check only): enough to place it
// in its key's order and judge its durability against the image.
type dlStub struct {
	rec  int
	key  string
	span lineSpan
	lo   mem.Version
}

// checkpoint is one engine's committed state. get is safe from any
// goroutine; everything else belongs to the holder of the engine lock.
type checkpoint struct {
	table atomic.Pointer[cpTable]
	// folded is the durable-prefix watermark the checkpoint covers: every
	// mutation record below it has been folded in. Stored after the insert
	// it covers.
	folded atomic.Int64

	// keys counts the distinct keys, one slot each: at most half the table.
	keys int

	// trimmed counts the epochs dropped from the machine's retained
	// history, so Report.Epochs is what the whole history would count.
	trimmed int

	// stubs is the folded part of the checker's image, in fold order.
	stubs []dlStub
}

func newCheckpoint() *checkpoint {
	cp := &checkpoint{}
	cp.table.Store(newCPTable(cpMinSlots))
	return cp
}

func newCPTable(n int) *cpTable {
	return &cpTable{mask: uint64(n - 1), slots: make([]atomic.Pointer[cpEntry], n)}
}

// slot finds a key's slot, or the empty one that ends its probe.
// shardHash's low bits chose the shard (key % shards is constant within
// one engine), so the probe starts from the high half of the avalanched
// hash.
func (t *cpTable) slot(key string) *atomic.Pointer[cpEntry] {
	for i := shardHash(key) >> 33; ; i++ {
		s := &t.slots[i&t.mask]
		if e := s.Load(); e == nil || e.key == key {
			return s
		}
	}
}

// lookup returns the key's newest folded entry, or nil.
func (cp *checkpoint) lookup(key string) *cpEntry {
	return cp.table.Load().slot(key).Load()
}

// get answers a key from the durably-published state: (value, true, rec)
// for a live key, (nil, false, rec) for a durable tombstone, and
// (nil, false, -1) when the key has no folded mutation at all — which,
// for a session with no in-flight writes, is a linearizable not-found
// (any concurrent write is unacked and may linearize after).
func (cp *checkpoint) get(key string) (val []byte, found bool, rec int) {
	if e := cp.lookup(key); e != nil {
		return e.val, e.found, e.rec
	}
	return nil, false, -1
}

// insert stores a write in its key's slot with one atomic store; writes
// fold in record order, so en is always its key's newest. It returns the
// stored entry and the one it replaced (nil: the key is new), which the
// table no longer reaches and whose lines no newest entry names. en.val
// must not alias memory the caller will reuse or wants released.
func (cp *checkpoint) insert(en cpEntry) (linked, replaced *cpEntry) {
	t := cp.table.Load()
	s := t.slot(en.key)
	if replaced = s.Load(); replaced != nil {
		// Share the replaced entry's key so a hot key pins one string, not
		// the latest request's.
		en.key = replaced.key
	} else {
		cp.keys++
		if 2*cp.keys > len(t.slots) {
			t = cp.grow(t)
			s = t.slot(en.key)
		}
	}
	s.Store(&en)
	return &en, replaced
}

// grow publishes a table twice t's size holding t's entries, the same
// pointers: readers probe t until that one table.Store, and both agree.
func (cp *checkpoint) grow(t *cpTable) *cpTable {
	nt := newCPTable(2 * len(t.slots))
	for i := range t.slots {
		if e := t.slots[i].Load(); e != nil {
			nt.slot(e.key).Store(e)
		}
	}
	cp.table.Store(nt)
	return nt
}

// each calls fn with the newest entry of every key, tombstones included.
func (cp *checkpoint) each(fn func(*cpEntry)) {
	t := cp.table.Load()
	for i := range t.slots {
		if e := t.slots[i].Load(); e != nil {
			fn(e)
		}
	}
}
