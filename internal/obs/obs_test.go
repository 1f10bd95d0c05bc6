package obs

import "testing"

// recorder is a Sink that remembers every event.
type recorder struct{ evs []Event }

func (r *recorder) Emit(ev Event) { r.evs = append(r.evs, ev) }

// TestNilProbeSafe exercises every Probe method on a nil receiver — the
// disabled-instrumentation configuration every component ships with.
func TestNilProbeSafe(t *testing.T) {
	var p *Probe
	if p.Active() {
		t.Fatal("nil probe reports active")
	}
	p.EpochOpen(1, 0, 0)
	p.EpochComplete(1, 0, 0, "barrier", 3)
	p.EpochSplit(1, 0, 0)
	p.EpochFlushStart(1, 0, 0, "intra")
	p.EpochPersist(1, 0, 0, "natural")
	p.Conflict(1, ConflictIntra, 0, 1, 2, 0x40, ResolveOnline)
	p.IDTFallback(1, 0, 1, 2)
	p.BankFlushStart(1, 0, 0, 0, 4)
	p.BankAck(1, 0, 0, 0)
	p.PersistAck(1, 0x40, 0, 0)
	p.TxRetired(1, 0)
	p.NVRAMQueue(1, 0, 12)
}

func TestEmptyProbeInactive(t *testing.T) {
	p := NewProbe(nil)
	if p.Active() {
		t.Error("probe of a nil sink reports active")
	}
	p.TxRetired(1, 0) // must not panic
}

// TestProbeFanOut: the probe hands its one sink every event, in order,
// with the fields its Kind documents.
func TestProbeFanOut(t *testing.T) {
	r := &recorder{}
	p := NewProbe(r)
	if !p.Active() {
		t.Fatal("probe with a sink not active")
	}
	p.Conflict(7, ConflictInter, 2, 5, 9, 0x80, ResolveIDT)
	p.PersistAck(8, 0xc0, -1, 0)
	if len(r.evs) != 2 {
		t.Fatalf("sink saw %d events, want 2", len(r.evs))
	}
	c := r.evs[0]
	if c.Kind != KConflict || c.Cycle != 7 || c.Core != 2 ||
		c.SrcCore != 5 || c.SrcEpoch != 9 || c.Line != 0x80 ||
		c.Label != ConflictInter || c.Detail != ResolveIDT {
		t.Errorf("conflict event = %+v", c)
	}
	pa := r.evs[1]
	if pa.Kind != KPersistAck || pa.Core != -1 || pa.Epoch != -1 {
		t.Errorf("untracked persist-ack should keep -1 sentinels: %+v", pa)
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if s := k.String(); s == "" || s == "kind(?)" {
			t.Errorf("Kind(%d) has no String", k)
		}
	}
	if numKinds.String() != "kind(?)" {
		t.Error("out-of-range Kind should stringify as kind(?)")
	}
}
