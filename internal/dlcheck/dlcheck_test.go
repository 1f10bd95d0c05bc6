package dlcheck

import (
	"strings"
	"testing"
)

// TestDisabledZeroAlloc pins the engine-facing contract: a nil tracker's
// observation path costs zero allocations per op (the -check-off hot
// path).
func TestDisabledZeroAlloc(t *testing.T) {
	var tr *Tracker
	allocs := testing.AllocsPerRun(1000, func() {
		tr.ObserveRead(1, "k001", 0)
		tr.ObserveWrite(1, 2, "k001")
		tr.AckDurable(3)
	})
	if allocs != 0 {
		t.Fatalf("disabled observation path allocates %v per op, want 0", allocs)
	}
	if tr.Check(&Image{}) != nil {
		t.Fatal("nil tracker Check returned a verdict")
	}
}

// TestAdaptiveSnapshots pins the FastTrack-style representation switch:
// same-session runs materialize no vector-clock snapshots; a snapshot is
// taken only at the first write after a cross-session join raised a
// foreign component.
func TestAdaptiveSnapshots(t *testing.T) {
	tr := New()
	// A long single-session run: reads observe the session's own writes.
	for i := 0; i < 100; i++ {
		tr.ObserveWrite(0, i, "k000")
		tr.ObserveRead(0, "k000", i)
	}
	if got := len(tr.snaps); got != 0 {
		t.Fatalf("single-session run took %d snapshots, want 0", got)
	}

	// Session 1 observes session 0's write: the join dirties its clock,
	// and exactly one snapshot is taken at its next write.
	tr.ObserveRead(1, "k000", 99)
	tr.ObserveWrite(1, 100, "k777")
	if got := len(tr.snaps); got != 1 {
		t.Fatalf("after one cross-session join: %d snapshots, want 1", got)
	}

	// Further same-session writes and re-reads of the already-joined
	// write stay in the epoch representation.
	tr.ObserveRead(1, "k000", 99)
	for i := 101; i < 110; i++ {
		tr.ObserveWrite(1, i, "k777")
	}
	if got := len(tr.snaps); got != 1 {
		t.Fatalf("no new joins but %d snapshots, want 1", got)
	}

	// A join in the other direction costs exactly one more.
	tr.ObserveRead(0, "k777", 109)
	tr.ObserveWrite(0, 110, "k000")
	if got := len(tr.snaps); got != 2 {
		t.Fatalf("after reverse join: %d snapshots, want 2", got)
	}
}

// kindOf reads a violation's kind tag from its message.
func kindOf(viol *Violation) string {
	tag, _, _ := strings.Cut(strings.TrimPrefix(viol.Msg, "dlcheck: "), ":")
	return tag
}

func kinds(v *Verdict) map[string]int {
	out := make(map[string]int)
	for _, viol := range v.Violations {
		out[kindOf(viol)]++
	}
	return out
}

// TestCheckOK: a cross-session chain where everything observed is
// durable is accepted.
func TestCheckOK(t *testing.T) {
	tr := New()
	tr.ObserveWrite(0, 0, "k001") // W0
	tr.ObserveRead(1, "k001", 0)  // s1 observes W0
	tr.ObserveWrite(1, 1, "k002") // W1
	tr.AckDurable(2)
	v := tr.Check(&Image{Order: []Publish{
		{Rec: 0, Key: "k000", Durable: true},
		{Rec: 1, Key: "k001", Durable: true},
	}})
	if !v.OK() {
		t.Fatalf("expected OK, got %s", v)
	}
	if v.Durable != 2 || v.Publishes != 2 || v.Reads != 1 || v.Acked != 2 {
		t.Fatalf("verdict counters wrong: %+v", v)
	}
	if v.Err() != nil {
		t.Fatalf("OK verdict returned error %v", v.Err())
	}
	if !strings.HasPrefix(v.String(), "OK (") {
		t.Fatalf("verdict string %q", v)
	}
}

// TestSessionPrefixHBOrder: a session's later publish durable while its
// earlier one is lost is no violation while neither was acked — pending
// ops may take effect independently — and an acked-lost one once the
// earlier was acked.
func TestSessionPrefixHBOrder(t *testing.T) {
	tr := New()
	tr.ObserveWrite(0, 0, "k001")
	tr.ObserveWrite(0, 1, "k002")
	img := &Image{Order: []Publish{
		{Rec: 0, Key: "k001", Durable: false},
		{Rec: 1, Key: "k002", Durable: true},
	}}
	if v := tr.Check(img); !v.OK() {
		t.Fatalf("unacked writes persisting out of program order rejected: %s", v)
	}
	tr.AckDurable(1)
	v := tr.Check(img)
	k := kinds(v)
	if k[ackedLost] != 1 || len(v.Violations) != 1 {
		t.Fatalf("want exactly one acked-lost violation, got %v (%s)", k, v)
	}
	if viol := v.Violations[0]; !strings.Contains(viol.Msg, "publish rec 0 (session 0)") {
		t.Fatalf("violation identity wrong: %s", viol.Msg)
	}
}

// TestCrossSessionHBOrder: a reader's durable publish happens-after a
// lost foreign write it observed — both the closure check and the read
// check fire, with distinct diagnostics.
func TestCrossSessionHBOrder(t *testing.T) {
	tr := New()
	tr.ObserveWrite(0, 0, "k001") // W0, will be lost
	tr.ObserveRead(1, "k001", 0)
	tr.ObserveWrite(1, 1, "k002") // W1, durable
	v := tr.Check(&Image{Order: []Publish{
		{Rec: 0, Key: "k000", Durable: false},
		{Rec: 1, Key: "k001", Durable: true},
	}})
	k := kinds(v)
	if k[hbOrder] != 1 || k[readContradiction] != 1 {
		t.Fatalf("want hb-order + read-contradiction, got %v (%s)", k, v)
	}
	for _, viol := range v.Violations {
		if kindOf(viol) == readContradiction && !strings.Contains(viol.Msg, `of key "k001"`) {
			t.Fatalf("read contradiction %q does not name key k001", viol.Msg)
		}
	}
}

// TestAckedLost: an acked publish missing from the image is flagged even
// when nothing else is durable.
func TestAckedLost(t *testing.T) {
	tr := New()
	tr.ObserveWrite(0, 0, "k001")
	tr.AckDurable(1)
	v := tr.Check(&Image{Order: []Publish{{Rec: 0, Key: "k000", Durable: false}}})
	k := kinds(v)
	if k[ackedLost] != 1 || len(v.Violations) != 1 {
		t.Fatalf("want exactly one acked-lost violation, got %v (%s)", k, v)
	}
	if !strings.Contains(v.Violations[0].Msg, "acked durable") {
		t.Fatalf("diagnostic %q", v.Violations[0].Msg)
	}
}

// TestResurrectedDelete: a client observed a tombstone; losing the
// tombstone while the observer's later effects survive resurrects the
// key and is rejected as a read contradiction.
func TestResurrectedDelete(t *testing.T) {
	tr := New()
	tr.ObserveWrite(0, 0, "k001") // Put k001
	tr.ObserveWrite(0, 1, "k001") // Delete k001 (tombstone publish)
	tr.ObserveRead(1, "k001", 1)  // s1 sees the deletion
	tr.ObserveWrite(1, 2, "k002") // s1's later durable effect
	v := tr.Check(&Image{Order: []Publish{
		{Rec: 0, Key: "k000", Durable: true},
		{Rec: 1, Key: "k000", Durable: false}, // tombstone lost => k001 resurrected
		{Rec: 2, Key: "k001", Durable: true},
	}})
	k := kinds(v)
	if k[readContradiction] != 1 {
		t.Fatalf("want read-contradiction, got %v (%s)", k, v)
	}
	var rc *Violation
	for _, viol := range v.Violations {
		if kindOf(viol) == readContradiction {
			rc = viol
		}
	}
	if !strings.Contains(rc.Msg, `session 1 observed write rec 1 of key "k001"`) {
		t.Fatalf("read contradiction identity wrong: %s", rc.Msg)
	}
}

// TestBucketOrderClosure: a key's chain carries no happens-before edge —
// its publishes persist independently — so a durable publish after
// another session's lost one of the same key, with no read between them,
// is accepted; a read of the lost one makes it a violation.
func TestBucketOrderClosure(t *testing.T) {
	tr := New()
	tr.ObserveWrite(0, 0, "k001") // first in record order, lost
	tr.ObserveWrite(1, 1, "k001") // second, durable
	img := &Image{Order: []Publish{
		{Rec: 0, Key: "k001", Durable: false},
		{Rec: 1, Key: "k001", Durable: true},
	}}
	if v := tr.Check(img); !v.OK() {
		t.Fatalf("independent entries of one key rejected: %s", v)
	}
	tr.ObserveRead(1, "k001", 0)
	tr.ObserveWrite(1, 2, "k002")
	img.Order = append(img.Order, Publish{Rec: 2, Key: "k002", Durable: true})
	if k := kinds(tr.Check(img)); k[hbOrder] != 1 {
		t.Fatalf("want hb-order through the read, got %v", k)
	}
}

// TestUnknownPublish: an image naming a record the tracker never saw is
// itself a violation.
func TestUnknownPublish(t *testing.T) {
	tr := New()
	tr.ObserveWrite(0, 0, "k001")
	v := tr.Check(&Image{Order: []Publish{
		{Rec: 0, Key: "k000", Durable: true},
		{Rec: 99, Key: "k000", Durable: true},
	}})
	k := kinds(v)
	if k[unknownPublish] != 1 {
		t.Fatalf("want unknown-publish, got %v (%s)", k, v)
	}
	if !strings.Contains(v.String(), "FAILED") {
		t.Fatalf("verdict string %q", v)
	}
}

// TestKindString pins the diagnostic vocabulary: the tag each kind of
// violation carries in its message.
func TestKindString(t *testing.T) {
	want := map[string]string{
		ackedLost:         "acked-lost",
		hbOrder:           "hb-order",
		readContradiction: "read-contradiction",
		unknownPublish:    "unknown-publish",
	}
	for k, s := range want {
		if got := kindOf(violation(k, "rec %d", 1)); got != s {
			t.Fatalf("kind %q renders as %q, want %q", k, got, s)
		}
	}
}
