// Committed-state checkpoint: what the engine keeps of a write once it is
// durable. When the durable watermark passes a mutation record the engine
// verifies it, folds it in here — key → (value | tombstone, record index,
// entry lines and versions), newest entry per key — and drops the record
// itself, so audit state exists only while a persist is still owed.
// One structure serves both consumers: recovery (Verify, RecoveredState and
// DLImage are this checkpoint plus the unfolded tail) and the GET fast
// path, whose callers answer reads against precisely the durable prefix
// without touching the shard mailbox, the engine lock, or the simulated
// machine.
//
// The per-key map is a chained hash whose bucket heads are atomic pointers
// to immutable entries. The discipline mirrors the paper's publish-pointer
// idiom one level up: an entry is fully built before the single atomic
// store that links it, and once linked it is never mutated — readers that
// traverse a chain can only observe states that were durable when the head
// store happened. There is exactly one writer at a time (whoever holds the
// engine lock), so inserts need no CAS loop; amortized chain compaction and
// table growth swap in a rebuilt table with one atomic pointer store.
package pmkv

import (
	"sync/atomic"

	"persistbarriers/internal/mem"
)

// cpEntry is one immutable checkpoint entry: the newest durable write of a
// key at the moment it was linked. found=false is a tombstone (the key's
// newest durable write is a delete). Entries shadowed by a newer insert
// for the same key stay in the chain until compaction; readers take the
// first match, which is always the newest. Nothing in an entry points into
// a per-mutation arena: val is the checkpoint's own copy and key is shared
// with the entry it shadows.
type cpEntry struct {
	next *cpEntry
	key  string
	val  []byte
	// rec is the absolute mutation-record index of the write (the key's
	// order, and the checker's identity for it).
	rec   int
	found bool
	// core is the core that wrote the entry, whose free stack its lines go
	// back to (an int32 beside found, so the entry stays 96 bytes).
	core int32
	// span is the entry's lines (one for a tombstone), and lo and hi the
	// lowest and highest versions its stores committed at. While the entry
	// is its key's newest nothing else may write those lines, so a line of
	// span holding a version above hi was recycled too early (Verify check
	// 5); once a newer entry shadows this one, it goes on the engine's free
	// list. A line below lo never got the entry's store.
	span   lineSpan
	lo, hi mem.Version
}

// cpTable is one immutable-shape bucket array. Growth replaces the whole
// table (readers re-load the pointer per lookup), so mask and the slice
// header never change under a reader.
type cpTable struct {
	mask    uint64
	buckets []atomic.Pointer[cpEntry]
}

// cpMinBuckets is the initial (and minimum) table size.
const cpMinBuckets = 64

// cpMinRebuild is the entry count below which compaction is never
// triggered, so small stores don't churn tables.
const cpMinRebuild = 128

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

	// Bookkeeping driving amortized compaction.
	entries int // chain nodes across the table, including shadowed ones
	keys    int // distinct keys present

	// trimmed counts the epochs dropped from the machine's retained
	// history, so Report.Epochs is what the whole history would count.
	trimmed int

	// stubs is the folded part of the checker's image, in fold order.
	stubs []dlStub
}

func newCheckpoint() *checkpoint {
	cp := &checkpoint{}
	cp.table.Store(newCPTable(cpMinBuckets))
	return cp
}

func newCPTable(n int) *cpTable {
	return &cpTable{mask: uint64(n - 1), buckets: make([]atomic.Pointer[cpEntry], n)}
}

// bucket picks a key's chain. shardHash's low bits chose the shard
// (key % shards is constant within one engine), so the chain comes from
// the high half of the avalanched hash.
func (t *cpTable) bucket(key string) *atomic.Pointer[cpEntry] {
	return &t.buckets[(shardHash(key)>>33)&t.mask]
}

// lookup returns the key's newest folded entry, or nil.
func (cp *checkpoint) lookup(key string) *cpEntry {
	for e := cp.table.Load().bucket(key).Load(); e != nil; e = e.next {
		if e.key == key {
			return e
		}
	}
	return nil
}

// shadowed returns the older entry of e's key that e shadows in its chain
// (compaction drops it), or nil.
func (e *cpEntry) shadowed() *cpEntry {
	for d := e.next; d != nil; d = d.next {
		if d.key == e.key {
			return d
		}
	}
	return nil
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

// insert links a write at its key's chain head (single atomic store; the
// entry and its chain are immutable from that point). Writes fold in
// record order, so en is always its key's newest. It returns the linked
// entry and the one it shadows (nil: the key is new), whose lines no
// newest entry names any more. en.val must not alias memory the caller
// will reuse or wants released.
func (cp *checkpoint) insert(en cpEntry) (linked, shadowed *cpEntry) {
	t := cp.table.Load()
	b := t.bucket(en.key)
	head := b.Load()
	for e := head; e != nil; e = e.next {
		if e.key == en.key {
			// Share the shadowed entry's key so a hot key pins one string,
			// not the latest request's.
			en.key, shadowed = e.key, e
			break
		}
	}
	en.next = head
	b.Store(&en)
	cp.entries++
	if shadowed == nil {
		cp.keys++
	}
	// Amortized compaction: once shadowed entries outnumber live keys the
	// next rebuild is O(entries) against >= entries/2 inserts since the
	// last one. Growth rides along (table sized to the live key count), and
	// a table that has filled with distinct keys grows the same way.
	if cp.entries > cpMinRebuild && (cp.entries > 2*cp.keys || cp.entries > len(t.buckets)) {
		cp.rebuild()
	}
	return &en, shadowed
}

// each calls fn with the newest entry of every key, tombstones included.
func (cp *checkpoint) each(fn func(*cpEntry)) {
	t := cp.table.Load()
	for i := range t.buckets {
		head := t.buckets[i].Load()
	entries:
		for e := head; e != nil; e = e.next {
			// Chains are newest-first, so an entry is shadowed exactly when
			// its key appears nearer the head.
			for d := head; d != e; d = d.next {
				if d.key == e.key {
					continue entries
				}
			}
			fn(e)
		}
	}
}

// rebuild swaps in a compacted table holding exactly the newest entry
// per key (tombstones included — a deleted key must keep shadowing any
// older live entry). Readers keep traversing the old table until the
// single table.Store, and both tables answer every key with the same
// newest entry state.
func (cp *checkpoint) rebuild() {
	n := cpMinBuckets
	for n < 2*cp.keys {
		n <<= 1
	}
	nt := newCPTable(n)
	kept := 0
	cp.each(func(e *cpEntry) {
		b := nt.bucket(e.key)
		ne := *e
		ne.next = b.Load()
		b.Store(&ne)
		kept++
	})
	cp.entries, cp.keys = kept, kept
	cp.table.Store(nt)
}
