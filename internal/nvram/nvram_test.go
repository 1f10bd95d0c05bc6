package nvram

import (
	"testing"

	"persistbarriers/internal/mem"
	"persistbarriers/internal/sim"
)

func newCtrl(t *testing.T, eng *sim.Engine) *Controller {
	t.Helper()
	c, err := NewController(0, eng)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewControllerValidation(t *testing.T) {
	if _, err := NewController(0, nil); err == nil {
		t.Error("nil engine accepted")
	}
}

func TestReadLatency(t *testing.T) {
	eng := sim.NewEngine()
	c := newCtrl(t, eng)
	var done sim.Cycle
	c.Read(1, func() { done = eng.Now() })
	eng.Run()
	if done != ReadLatency {
		t.Fatalf("read completed at %d, want %d", done, ReadLatency)
	}
}

func TestWriteDurableExactlyAtAck(t *testing.T) {
	eng := sim.NewEngine()
	c := newCtrl(t, eng)
	c.Write(7, 42, nil)
	// One cycle before the ack the image must be empty.
	eng.RunUntil(WriteLatency - 1)
	if v := c.PersistedVersion(7); v != mem.NoVersion {
		t.Fatalf("write visible before ack: version %d", v)
	}
	eng.Run()
	if v := c.PersistedVersion(7); v != 42 {
		t.Fatalf("after ack, image[7] = %d, want 42", v)
	}
}

func TestWritesSerializeAtServiceInterval(t *testing.T) {
	eng := sim.NewEngine()
	c := newCtrl(t, eng)
	var acks []sim.Cycle
	for i := 0; i < 3; i++ {
		c.Write(mem.Line(i), mem.Version(i+1), func() { acks = append(acks, eng.Now()) })
	}
	eng.Run()
	if len(acks) != 3 {
		t.Fatalf("got %d acks, want 3", len(acks))
	}
	for i, want := range []sim.Cycle{
		WriteLatency,
		writeService + WriteLatency,
		2*writeService + WriteLatency,
	} {
		if acks[i] != want {
			t.Errorf("ack %d at %d, want %d", i, acks[i], want)
		}
	}
	s := c.Stats()
	if s.Writes != 3 {
		t.Errorf("Writes = %d, want 3", s.Writes)
	}
	if s.StallCycles == 0 {
		t.Error("expected queuing stalls for back-to-back writes")
	}
}

func TestLaterWriteWins(t *testing.T) {
	eng := sim.NewEngine()
	c := newCtrl(t, eng)
	c.Write(3, 1, nil)
	c.Write(3, 2, nil)
	eng.Run()
	if v := c.PersistedVersion(3); v != 2 {
		t.Fatalf("image[3] = %d, want 2 (later write wins)", v)
	}
}

func TestWriteLogAppendsDurably(t *testing.T) {
	eng := sim.NewEngine()
	c := newCtrl(t, eng)
	e1 := LogEntry{Line: 5, Old: 10, EpochCore: 1, EpochNum: 2}
	e2 := LogEntry{Line: 6, Old: 11, EpochCore: 1, EpochNum: 2}
	c.WriteLog(e1, nil)
	c.WriteLog(e2, nil)
	if len(c.log) != 0 {
		t.Fatal("log visible before writes complete")
	}
	eng.Run()
	log := c.log
	if len(log) != 2 || log[0] != e1 || log[1] != e2 {
		t.Fatalf("log = %+v, want [%+v %+v]", log, e1, e2)
	}
	if c.Stats().LogWrites != 2 {
		t.Errorf("LogWrites = %d, want 2", c.Stats().LogWrites)
	}
}

func TestImageIsACopy(t *testing.T) {
	eng := sim.NewEngine()
	b, err := NewBank(1, eng)
	if err != nil {
		t.Fatal(err)
	}
	b.ControllerFor(1).Write(1, 5, nil)
	eng.Run()
	img := b.Image()
	img[1] = 99
	if b.Image()[1] != 5 {
		t.Fatal("mutating the returned image affected the bank")
	}
}

func TestBankInterleavesLines(t *testing.T) {
	eng := sim.NewEngine()
	b, err := NewBank(4, eng)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for l := mem.Line(0); l < 8; l++ {
		id := b.ControllerFor(l).ID()
		seen[id] = true
		if id != int(l%4) {
			t.Errorf("line %d routed to MC %d, want %d", l, id, l%4)
		}
	}
	if len(seen) != 4 {
		t.Errorf("only %d controllers used, want 4", len(seen))
	}
}

func TestBankRejectsZeroControllers(t *testing.T) {
	if _, err := NewBank(0, sim.NewEngine()); err == nil {
		t.Error("zero-controller bank accepted")
	}
}

func TestBankImageMergesControllers(t *testing.T) {
	eng := sim.NewEngine()
	b, err := NewBank(2, eng)
	if err != nil {
		t.Fatal(err)
	}
	b.ControllerFor(0).Write(0, 1, nil) // MC 0
	b.ControllerFor(1).Write(1, 2, nil) // MC 1
	eng.Run()
	img := b.Image()
	if img[0] != 1 || img[1] != 2 {
		t.Fatalf("merged image = %v", img)
	}
	s := b.Stats()
	if s.Writes != 2 {
		t.Errorf("bank Writes = %d, want 2", s.Writes)
	}
}

func TestParallelControllersDoNotQueueOnEachOther(t *testing.T) {
	eng := sim.NewEngine()
	b, err := NewBank(4, eng)
	if err != nil {
		t.Fatal(err)
	}
	var acks []sim.Cycle
	// Four writes to four different MCs: all should ack at WriteLatency.
	for l := mem.Line(0); l < 4; l++ {
		b.ControllerFor(l).Write(l, 1, func() { acks = append(acks, eng.Now()) })
	}
	eng.Run()
	for i, a := range acks {
		if a != WriteLatency {
			t.Errorf("ack %d at %d, want %d (no cross-MC queuing)", i, a, WriteLatency)
		}
	}
}

// TestWriteZeroAlloc: a controller in steady state serves Write and
// WriteLog without allocating — the request in flight is a pendingWrite
// taken from the controller's free list, not a closure. The log itself is
// append-only, so the gate measures WriteLog against a log with room.
func TestWriteZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	c := newCtrl(t, eng)
	acks := 0
	ack := func() { acks++ }
	const burst = 16 // writes in flight at once
	round := func() {
		for i := 0; i < burst; i++ {
			c.Write(mem.Line(i), mem.Version(acks+1), ack)
			c.WriteLog(LogEntry{Line: mem.Line(i)}, ack)
		}
		eng.Run()
	}
	round() // warm: frames made, image keys present, event queue sized
	c.log = make([]LogEntry, 0, 201*burst)
	before := acks
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("steady-state Write+WriteLog allocated %.2f times per %d-request burst, want 0", n, 2*burst)
	}
	if got, want := acks-before, 201*2*burst; got != want {
		t.Fatalf("%d acks fired, want %d", got, want)
	}
	if len(c.freeWrites) != 2*burst {
		t.Fatalf("free list holds %d frames after the bursts drained, want %d (the most ever in flight)", len(c.freeWrites), 2*burst)
	}
	for _, w := range c.freeWrites {
		if w.c != nil || w.done != nil {
			t.Fatal("a released frame still points at its controller or ack")
		}
	}
}

// TestBackgroundWriteWaitsForIdle: a background write is admitted only
// when the channel is idle, so a read that arrives while it waits goes
// first; its wait counts in BackgroundWaitCycles, not in StallCycles.
func TestBackgroundWriteWaitsForIdle(t *testing.T) {
	eng := sim.NewEngine()
	c := newCtrl(t, eng)
	var readAt, writeAt sim.Cycle
	c.Read(1, func() {}) // busy for readService
	c.WriteBackground(2, 7, func() { writeAt = eng.Now() })
	eng.At(readService-1, func() { c.Read(3, func() { readAt = eng.Now() }) })
	eng.Run()
	if want := readService + ReadLatency; readAt != want {
		t.Fatalf("the read behind the background write returned at %d, want %d: it waited for the write", readAt, want)
	}
	if want := 2*readService + WriteLatency; writeAt != want {
		t.Fatalf("background write acked at %d, want %d: admitted once the second read's service ended", writeAt, want)
	}
	s := c.Stats()
	if s.BackgroundWaitCycles != 2*readService || s.StallCycles != 1 || s.Writes != 1 {
		t.Fatalf("stats %+v: want %d background wait cycles, the second read's 1 stall cycle and 1 write", s, 2*readService)
	}
	if c.PersistedVersion(2) != 7 {
		t.Fatal("background write not durable after its ack")
	}
}

// TestBackgroundQueueOrder: background writes go in arrival order, one
// service interval apart on an otherwise idle channel.
func TestBackgroundQueueOrder(t *testing.T) {
	eng := sim.NewEngine()
	c := newCtrl(t, eng)
	var acks []mem.Line
	for l := mem.Line(0); l < 3; l++ {
		c.WriteBackground(l, 1, func() { acks = append(acks, l) })
	}
	if end := eng.Run(); end != 2*writeService+WriteLatency {
		t.Fatalf("three background writes done at %d, want %d", end, 2*writeService+WriteLatency)
	}
	if len(acks) != 3 || acks[0] != 0 || acks[1] != 1 || acks[2] != 2 {
		t.Fatalf("acks in order %v, want [0 1 2]", acks)
	}
}

// TestForegroundWritePromotes: a foreground write of a line admits the
// queued background write of that line first, so the older version cannot
// land last; the other queued writes stay queued.
func TestForegroundWritePromotes(t *testing.T) {
	eng := sim.NewEngine()
	c := newCtrl(t, eng)
	c.Write(9, 1, nil) // keeps the channel busy at cycle 0
	for l := mem.Line(1); l <= 3; l++ {
		c.WriteBackground(l, 1, nil)
	}
	c.Write(2, 2, nil)
	if n := len(c.background); n != 2 || c.background[0].line != 1 || c.background[1].line != 3 {
		t.Fatalf("after a foreground write of line 2 the queue holds %d writes, want lines 1 and 3", n)
	}
	eng.Run()
	if v := c.PersistedVersion(2); v != 2 {
		t.Fatalf("line 2 durable at version %d, want the foreground write's 2", v)
	}
	if s := c.Stats(); s.Writes != 5 || s.BackgroundWaitCycles == 0 {
		t.Fatalf("stats %+v: want 5 writes and some background wait", s)
	}
}

// TestBackgroundZeroAlloc: the background queue is reused, so steady-state
// background writes, promoted or admitted when idle, allocate nothing.
func TestBackgroundZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	c := newCtrl(t, eng)
	const burst = 16
	round := func() {
		c.Read(100, func() {})
		for i := 0; i < burst; i++ {
			c.WriteBackground(mem.Line(i), 1, nil)
		}
		c.promote(3)
		eng.Run()
	}
	round()
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("steady-state background writes allocated %.2f times per %d-write burst, want 0", n, burst)
	}
}
