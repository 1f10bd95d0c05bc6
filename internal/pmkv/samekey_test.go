// Tests for writes to one key that race inside one commit window, on
// different cores: their entries can persist in either order, and every
// way of asking — a Get through the engine, the lock-free fast path,
// recovery — must then name the same winner, the write with the highest
// record index.
package pmkv

import (
	"bytes"
	"fmt"
	"testing"
)

// raceOp is one write of a racing window: a Put of n bytes, all the
// session's letter, or a Delete.
type raceOp struct {
	sess int
	op   Op
	key  string
	n    int
}

func (o raceOp) value() []byte {
	if o.op != Put {
		return nil
	}
	return bytes.Repeat([]byte{byte('a' + o.sess)}, o.n)
}

// answer renders what a read returned, so answers compare with ==.
func answer(val []byte, found bool) string {
	if !found {
		return "<absent>"
	}
	return string(val)
}

// raceCase is one racing commit window for key "k" on a fresh checked
// engine with four sessions on four cores.
type raceCase struct {
	name   string
	before []raceOp // applied and made durable first
	window []raceOp // the racing window
	// pending is submitted and pumped right before the window, and left to
	// persist under it.
	pending []raceOp
	// mid, if set, runs between the window's SubmitAppend and its PumpRetire.
	mid func(t *testing.T, e *Engine, sessions []*Session)
}

// run drives the case and asks for "k" four ways: a Get in the window
// right after the race (served while the racers are still unfolded), a Get
// once every racer is durable and acked, the fast path then, and recovery
// after a clean Close that must verify and pass the checker. It reports
// recovery's answer and whether all four agreed.
func (c raceCase) run(t *testing.T) (recovered string, agreed bool) {
	t.Helper()
	e, err := New(Config{Check: true})
	if err != nil {
		t.Fatal(err)
	}
	sessions := []*Session{e.NewSession(), e.NewSession(), e.NewSession(), e.NewSession()}
	requests := func(ops []raceOp) []Request {
		reqs := make([]Request, len(ops))
		for i, o := range ops {
			reqs[i] = Request{Sess: sessions[o.sess], Op: o.op, Key: o.key, Value: o.value()}
		}
		return reqs
	}
	get := func(sess int) string {
		resps, err := apply(e, []Request{{Sess: sessions[sess], Op: Get, Key: "k"}})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		return answer(resps[0].Value, resps[0].Found)
	}
	durable := func() {
		settle(t, e)
		e.dl.AckDurable(e.RecordCount())
	}
	if len(c.before) > 0 {
		if _, err := apply(e, requests(c.before)); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		durable()
	}
	if len(c.pending) > 0 {
		if _, err := e.SubmitAppend(nil, requests(c.pending)); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := e.PumpRetire(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	if _, err := e.SubmitAppend(nil, requests(c.window)); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if c.mid != nil {
		c.mid(t, e, sessions)
	}
	if err := e.PumpRetire(); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	early := get(3)
	durable()
	late := get(2)
	fastVal, fastFound, _ := e.readCommitted("k")
	fast := answer(fastVal, fastFound)
	res, err := e.Close()
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if _, err := e.Verify(res); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if v := e.CheckDL(res); !v.OK() {
		t.Fatalf("%s: %v", c.name, v)
	}
	state, err := e.RecoveredState(res)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	val, found := state["k"]
	recovered = answer(val, found)
	agreed = early == recovered && late == recovered && fast == recovered
	if !agreed {
		t.Errorf("%s: k recovers as %.12q; a Get right after the race was served %.12q, a Get after the acks %.12q, the fast path %.12q",
			c.name, recovered, early, late, fast)
	}
	return recovered, agreed
}

// lastTranslated is what "k" holds if the window's writes take effect in
// the order they were translated in.
func (c raceCase) lastTranslated() string {
	last := "<absent>"
	for _, o := range c.window {
		if o.key == "k" {
			last = answer(o.value(), o.op == Put)
		}
	}
	return last
}

// TestSameKeyRaceOneAnswer: four sessions on four cores Put one key in one
// window, 40 times over with the value sizes and the translate order
// varied, and the key is served as it is recovered every time: as the
// write translated last, whichever entry persisted first. Then the two
// shapes in which the loser and the winner differ in kind: a Delete
// translated after a Put whose longer entry persists after it, and a Put
// translated after a Delete queued behind its core's long Put.
func TestSameKeyRaceOneAnswer(t *testing.T) {
	inverted, disagreed := 0, 0
	winners := make(map[string]int) // by the winning session's letter
	for trial := 0; trial < 40; trial++ {
		c := raceCase{name: fmt.Sprintf("trial %d", trial)}
		for j := 0; j < 4; j++ {
			sess := (trial + j) % 4
			if (trial/4+j)%3 == 0 {
				// Held up behind a Put of its own, so the last core to
				// persist is not always the same one.
				c.window = append(c.window, raceOp{sess: sess, op: Put, key: fmt.Sprintf("own%d", sess), n: 1 + (trial*31+j*71)%250})
			}
			c.window = append(c.window, raceOp{sess: sess, op: Put, key: "k", n: 1 + (trial*53+j*97)%250})
		}
		recovered, agreed := c.run(t)
		winners[recovered[:1]]++
		if recovered != c.lastTranslated() {
			inverted++
		}
		if !agreed {
			disagreed++
		}
	}
	t.Logf("%d of 40 four-way races recovered another write than the one translated last; %d were served differently from what they recovered as; winners %v", inverted, disagreed, winners)
	if inverted != 0 || len(winners) != 4 {
		t.Fatalf("%d of 40 races settled against record order, winners %v: want none, and every session winning some", inverted, winners)
	}

	seed := []raceOp{{sess: 0, op: Put, key: "k", n: 3}}
	for _, row := range []raceCase{
		{name: "put then delete", before: seed, window: []raceOp{
			{sess: 0, op: Put, key: "k", n: 200},
			{sess: 1, op: Delete, key: "k"},
		}},
		{name: "delete then put", before: seed, window: []raceOp{
			{sess: 0, op: Put, key: "other", n: 250},
			{sess: 0, op: Delete, key: "k"},
			{sess: 1, op: Put, key: "k", n: 8},
		}},
	} {
		if got, _ := row.run(t); got != row.lastTranslated() {
			t.Errorf("%s: k recovered as %.12q, want the write translated last, %.12q", row.name, got, row.lastTranslated())
		}
	}
}

// TestSameKeyRaceFoldedMidWindow: the watermark may pass a writer while a
// later window is still open, when a caller steps durability between
// SubmitAppend and PumpRetire: the worker's pipeline persists a window
// under the next. The open window is settled with writers in the
// checkpoint and in the tail: one folded and superseded by the open
// window's unfolded one; and two folded, where session 0's own later read
// must be served from the checkpoint — its own write superseded there, and
// its lines free again.
func TestSameKeyRaceFoldedMidWindow(t *testing.T) {
	a, b := raceOp{sess: 0, op: Put, key: "k", n: 1}, raceOp{sess: 1, op: Put, key: "k", n: 1}
	after := func(sess int) raceOp { return raceOp{sess: sess, op: Put, key: fmt.Sprintf("after%d", sess), n: 64} }
	for _, row := range []struct {
		name    string
		pending []raceOp
		window  []raceOp
		folded  int    // records the cursor passes with the window open
		ownRead string // what session 0 then reads
		winner  string
	}{
		{"the open window's writer is last", []raceOp{a}, []raceOp{b}, 1, "a", "b"},
		{"both folded", []raceOp{a, b}, []raceOp{after(0), after(1)}, 2, "b", "b"},
	} {
		c := raceCase{name: row.name, pending: row.pending, window: row.window}
		c.mid = func(t *testing.T, e *Engine, sessions []*Session) {
			for i := 0; i < 100; i++ {
				if d, _, _ := e.durableWatermark(); d >= row.folded {
					break
				}
				if err := e.gap(0); err != nil {
					t.Fatal(err)
				}
			}
			resps, err := e.SubmitAppend(nil, []Request{{Sess: sessions[0], Op: Get, Key: "k"}})
			if err != nil || answer(resps[0].Value, resps[0].Found) != row.ownRead {
				t.Fatalf("%s: session 0 reads %+v after the fold (%v), want %q", row.name, resps, err, row.ownRead)
			}
			heapPartition(t, e, row.name)
			e.mu.Lock()
			defer e.mu.Unlock()
			if e.durableCursor != row.folded {
				t.Fatalf("%s: %d records folded with the window open, want %d", row.name, e.durableCursor, row.folded)
			}
		}
		if got, _ := c.run(t); got != row.winner {
			t.Errorf("%s: k recovered as %.12q, want %q", row.name, got, row.winner)
		}
	}
}

// TestSameKeyRaceSettledAtClose: a window that was fed and never pumped is
// retired by Close's drain and settled there, so the state a clean Close
// leaves is still the one recovery rebuilds (Verify's check 6 compares
// them), and the one writer the race left standing is the last
// translated, though its entry is the shortest.
func TestSameKeyRaceSettledAtClose(t *testing.T) {
	e, err := New(Config{Check: true})
	if err != nil {
		t.Fatal(err)
	}
	var window []Request
	for i := 0; i < 4; i++ {
		window = append(window, Request{Sess: e.NewSession(), Op: Put, Key: "k", Value: bytes.Repeat([]byte{byte('a' + i)}, 40*(4-i))})
	}
	if _, err := e.SubmitAppend(nil, window); err != nil {
		t.Fatal(err)
	}
	res, err := e.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Verify(res); err != nil {
		t.Fatal(err)
	}
	state, err := e.RecoveredState(res)
	if err != nil {
		t.Fatal(err)
	}
	served := e.volatile()
	if len(served) != 1 || string(served["k"]) != string(state["k"]) || string(state["k"]) != string(window[3].Value) {
		t.Fatalf("a clean Close serves %.12q, recovery holds %.12q, want the last writer translated", served["k"], state["k"])
	}
}

// TestShardedSameKeyRaceOneAnswer is the race through a live store: four
// sessions keep their windows full of Puts and Deletes to three shared
// keys; once every ack is in, a fifth session reads each key on the fast
// path and again through the mailbox — it has a write of its own to another
// key in flight, so the Get falls back — and the two answers are one. After
// 50 rounds the last answers are what recovery holds.
func TestShardedSameKeyRaceOneAnswer(t *testing.T) {
	store, err := NewSharded(ShardedConfig{Shards: 1, Engine: Config{Check: true}})
	if err != nil {
		t.Fatal(err)
	}
	const writers, depth, rounds = 4, 8, 50
	keys := []string{"ra", "rb", "rc"}
	sessions := make([]*ShardedSession, writers)
	for i := range sessions {
		sessions[i] = store.NewSession()
	}
	reader := store.NewSession()
	done := make(chan Completion, writers*depth)
	await := func(n int) (last ShardAck) {
		for ; n > 0; n-- {
			c := <-done
			if c.Ack.Err != nil || c.Ack.Crashed {
				t.Fatalf("op %d: %+v", c.Tag, c.Ack)
			}
			if c.Tag == 1 {
				last = c.Ack
			}
		}
		return last
	}
	rng := uint64(21)
	last := make(map[string]string)
	stale := 0
	for round := 0; round < rounds; round++ {
		for d := 0; d < depth; d++ {
			for w, sess := range sessions {
				rng = rng*6364136223846793005 + 1442695040888963407
				op, key := Put, keys[(rng>>33)%uint64(len(keys))]
				var val []byte
				if (rng>>40)%5 == 0 {
					op = Delete
				} else {
					val = bytes.Repeat([]byte{byte('a' + w)}, 1+int((rng>>45)%250))
					copy(val, fmt.Sprintf("%d.%d.%d:", round, w, d))
				}
				if _, err := store.DoAsync(sess, op, key, val, nil, 0, done); err != nil {
					t.Fatal(err)
				}
			}
		}
		await(writers * depth)
		for _, key := range keys {
			fast := store.do(reader, Get, key, nil)
			if fast.Err != nil || !fast.Fast {
				t.Fatalf("round %d: read of %q with nothing in flight: %+v", round, key, fast)
			}
			// The reader's own write to a key sharing key's pending slot
			// holds its Gets of key off the fast path until it is acked;
			// should the ack win the race to the Get, go again.
			slow := ShardAck{Fast: true}
			for slow.Fast {
				if _, err := store.DoAsync(reader, Put, slotMate(key, 1), []byte{byte(round)}, nil, 0, done); err != nil {
					t.Fatal(err)
				}
				if _, err := store.DoAsync(reader, Get, key, nil, nil, 1, done); err != nil {
					t.Fatal(err)
				}
				slow = await(2)
			}
			last[key] = answer(fast.Resp.Value, fast.Resp.Found)
			if got := answer(slow.Resp.Value, slow.Resp.Found); got != last[key] {
				stale++
				t.Errorf("round %d: %q is %.16q on the fast path and %.16q through the mailbox", round, key, last[key], got)
				break
			}
		}
	}
	if stale > 0 {
		t.Errorf("%d of %d rounds served a key two ways", stale, rounds)
	}
	results, err := store.Close()
	if err != nil {
		t.Fatal(err)
	}
	recovered := mergeRecovered(results)
	for _, key := range keys {
		val, found := recovered[key]
		if got := answer(val, found); got != last[key] {
			t.Errorf("%q was last served as %.16q and recovers as %.16q", key, last[key], got)
		}
	}
}

// slotMate is a key other than key that a store of the given shard count
// routes to key's shard and counts in key's pending slot.
func slotMate(key string, shards int) string {
	for i := 0; ; i++ {
		mate := fmt.Sprintf("mate%d", i)
		if mate != key && ShardOf(mate, shards) == ShardOf(key, shards) && pendSlot(shardHash(mate)) == pendSlot(shardHash(key)) {
			return mate
		}
	}
}
