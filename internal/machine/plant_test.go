package machine

import (
	"testing"

	"persistbarriers/internal/epoch"
)

// TestPlantedEarlyFlushRelease tests the tester: the frames' lifetime rule
// (flush.go) is only as good as the goldens' ability to notice a frame
// released while a continuation on it is still scheduled. The plant returns
// a flushOp to its free list when the last BankAck is sent, a mesh
// crossing before it arrives; the sweep's quick-grid row must notice at
// once — the late BankAck finds the frame's pointers cleared and panics,
// or finds the next flush in it and moves a fingerprint.
func TestPlantedEarlyFlushRelease(t *testing.T) {
	requireCaught(t, "quick-grid", plantEarlyFlushRelease, "panicked")
}

// TestPlantedShortRing tests the tester for epoch naming: every wait and
// every in-flight write names its epoch by ID, which is sound only if a
// ring slot is reused after its epoch persisted, never before. The plant
// makes each core's ring one slot short of the in-flight limit, so the
// eighth epoch in flight reopens the slot of the oldest; the sweep's
// quick-grid row must notice at once.
func TestPlantedShortRing(t *testing.T) {
	tab, err := epoch.NewTable(0, epoch.DefaultConfig(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	tab.PlantShortRing()
	for range epoch.DefaultConfig().MaxInFlight - 1 {
		tab.Advance(0, epoch.BarrierAdvance)
	}
	if tab.Lookup(0) != tab.Current() {
		t.Fatal("with the ring one slot short, the eighth epoch in flight did not reopen the oldest's slot")
	}
	requireCaught(t, "quick-grid", plantShortRing, "moved")
}
