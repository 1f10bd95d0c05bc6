package trace

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"persistbarriers/internal/mem"
	"persistbarriers/internal/sim"
)

func TestBuilderSequence(t *testing.T) {
	var b Builder
	b.Load(64).Store(128).Compute(10).Barrier().TxEnd()
	ops := b.Ops()
	want := []OpKind{Load, Store, Compute, Barrier, TxEnd}
	if len(ops) != len(want) {
		t.Fatalf("len = %d, want %d", len(ops), len(want))
	}
	for i, k := range want {
		if ops[i].Kind() != k {
			t.Errorf("op %d kind = %v, want %v", i, ops[i].Kind(), k)
		}
	}
	if ops[0].Addr() != 64 || ops[1].Addr() != 128 || ops[2].Cycles() != 10 {
		t.Errorf("operand values wrong: %+v", ops[:3])
	}
}

func TestComputeZeroIsElided(t *testing.T) {
	var b Builder
	b.Compute(0)
	if len(b.ops) != 0 {
		t.Fatal("zero-cycle compute was appended")
	}
}

func TestStoreRangeCoversEveryLine(t *testing.T) {
	var b Builder
	b.StoreRange(0, 512) // the paper's 512 B entry: 8 lines
	if len(b.ops) != 8 {
		t.Fatalf("512B store range = %d ops, want 8", len(b.ops))
	}
	for i, op := range b.Ops() {
		if op.Kind() != Store {
			t.Fatalf("op %d kind = %v", i, op.Kind())
		}
		if mem.LineOf(op.Addr()) != mem.Line(i) {
			t.Fatalf("op %d line = %v, want %d", i, mem.LineOf(op.Addr()), i)
		}
	}
}

// checkRange reports why ops are not one op of kind k per line of the
// byte range [a, a+size), each at its line's base, in ascending order.
func checkRange(ops []Op, k OpKind, a mem.Addr, size uint64) string {
	if len(ops) != mem.LinesSpanned(a, size) {
		return fmt.Sprintf("%d ops, want LinesSpanned = %d", len(ops), mem.LinesSpanned(a, size))
	}
	for i, op := range ops {
		want := mem.LineOf(a) + mem.Line(i)
		if op.Kind() != k || op.Addr() != want.Addr() {
			return fmt.Sprintf("op %d is %v %#x, want %v %#x", i, op.Kind(), uint64(op.Addr()), k, uint64(want.Addr()))
		}
	}
	if size > 0 && mem.LineOf(ops[len(ops)-1].Addr()) != mem.LineOf(a+mem.Addr(size)-1) {
		return "the last byte of the range is not in the last line"
	}
	return ""
}

// TestRangeBuildersAreContiguous: an unaligned range's lines start at the
// line holding its first byte and follow one another.
func TestRangeBuildersAreContiguous(t *testing.T) {
	var b Builder
	if why := checkRange(b.StoreRange(100, 300).Ops(), Store, 100, 300); why != "" {
		t.Fatalf("StoreRange(100, 300): %s", why)
	}
	if why := checkRange(b.Reset().LoadRange(100, 300).Ops(), Load, 100, 300); why != "" {
		t.Fatalf("LoadRange(100, 300): %s", why)
	}
}

// TestRangeBuildersProperty: every byte range, empty ones included, gets
// exactly the lines it touches.
func TestRangeBuildersProperty(t *testing.T) {
	f := func(rawAddr uint16, rawSize uint16) bool {
		a, size := mem.Addr(rawAddr), uint64(rawSize)
		var b Builder
		return checkRange(b.StoreRange(a, size).Ops(), Store, a, size) == "" &&
			checkRange(b.Reset().LoadRange(a, size).Ops(), Load, a, size) == ""
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRangeBuildersZeroAlloc: on a builder that has grown, a range is
// appended without allocating.
func TestRangeBuildersZeroAlloc(t *testing.T) {
	var b Builder
	b.StoreRange(32, 512).LoadRange(32, 512)
	allocs := testing.AllocsPerRun(100, func() {
		b.Reset().StoreRange(32, 512).LoadRange(32, 512)
	})
	if allocs != 0 || len(b.ops) != 18 {
		t.Fatalf("two 9-line ranges: %d ops, %.1f allocations; want 18 and 0", len(b.ops), allocs)
	}
}

// TestOpLayout pins the packed format: an op is 16 bytes, and every
// builder method reads back through every accessor exactly, at the
// extremes of each field and with 0 for a field the kind does not use.
func TestOpLayout(t *testing.T) {
	if got := unsafe.Sizeof(Op{}); got != 16 {
		t.Fatalf("sizeof(Op) = %d, want 16", got)
	}
	const maxAddr, maxCycles = mem.Addr(math.MaxUint64), sim.Cycle(math.MaxUint64)
	var b Builder
	b.Load(maxAddr).Store(maxAddr).StoreLine(maxAddr, MaxToken).StoreLine(64, 1).
		Compute(maxCycles).Compute(1).Barrier().TxEnd().Load(0).PostedLoad(maxAddr)
	want := []struct {
		kind   OpKind
		addr   mem.Addr
		cycles sim.Cycle
		token  uint64
	}{
		{Load, maxAddr, 0, 0},
		{Store, maxAddr, 0, 0},
		{StoreLine, maxAddr, 0, MaxToken},
		{StoreLine, 64, 0, 1},
		{Compute, 0, maxCycles, 0},
		{Compute, 0, 1, 0},
		{Barrier, 0, 0, 0},
		{TxEnd, 0, 0, 0},
		{Load, 0, 0, 0},
		{PostedLoad, maxAddr, 0, 0},
	}
	if MaxToken != 1<<56-1 {
		t.Fatalf("MaxToken = %#x, want 2^56-1", uint64(MaxToken))
	}
	ops := b.Ops()
	if len(ops) != len(want) {
		t.Fatalf("%d ops, want %d", len(ops), len(want))
	}
	for i, w := range want {
		op := ops[i]
		if op.Kind() != w.kind || op.Addr() != w.addr || op.Cycles() != w.cycles || op.Token() != w.token {
			t.Errorf("op %d reads %v addr %#x cycles %d token %#x, want %v %#x %d %#x", i,
				op.Kind(), uint64(op.Addr()), op.Cycles(), op.Token(), w.kind, uint64(w.addr), w.cycles, w.token)
		}
	}
	if (Op{}).Kind() != Compute || (Op{}).Cycles() != 0 {
		t.Error("the zero Op is not a zero-cycle Compute")
	}
}

// TestStoreLinePanicsOnWideToken: a token the packing cannot hold is
// refused, never truncated.
func TestStoreLinePanicsOnWideToken(t *testing.T) {
	for _, tok := range []uint64{MaxToken + 1, math.MaxUint64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("StoreLine(_, %#x) did not panic", tok)
				}
			}()
			var b Builder
			b.StoreLine(0, tok)
		}()
	}
}

func TestLoadRangeUnaligned(t *testing.T) {
	var b Builder
	b.LoadRange(32, 512)
	if len(b.ops) != 9 {
		t.Fatalf("unaligned 512B load range = %d ops, want 9", len(b.ops))
	}
}

func TestProgramCounts(t *testing.T) {
	var a, b Builder
	a.Store(0).StoreLine(64, 1).Load(0).TxEnd()
	b.Store(128).Barrier()
	p := Program{Traces: [][]Op{a.Ops(), b.Ops()}}
	if p.Cores() != 2 {
		t.Errorf("Cores = %d", p.Cores())
	}
	if p.Ops() != 6 {
		t.Errorf("Ops = %d, want 6", p.Ops())
	}
	if p.Stores() != 3 {
		t.Errorf("Stores = %d, want 3", p.Stores())
	}
}

func TestOpKindStrings(t *testing.T) {
	kinds := []OpKind{Compute, Load, Store, Barrier, TxEnd, PostedLoad, StoreLine, OpKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", uint8(k))
		}
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandZeroSeedWorks(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck generator")
	}
}

func TestRandIntnBounds(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		r := NewRand(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

// TestBuildPacksExactly: Build's traces share one exact-size array, and
// each is capped at its own end, so appending to one core's trace cannot
// write into the next core's.
func TestBuildPacksExactly(t *testing.T) {
	p := Build(3, func(bs []Builder) {
		bs[0].Load(64).Store(128)
		bs[2].Compute(5).Barrier().TxEnd()
	})
	if p.Cores() != 3 || p.Ops() != 5 {
		t.Fatalf("cores %d ops %d, want 3 and 5", p.Cores(), p.Ops())
	}
	for i, tr := range p.Traces {
		if cap(tr) != len(tr) {
			t.Errorf("trace %d: cap %d, len %d", i, cap(tr), len(tr))
		}
	}
	var want Builder
	want.Compute(5).Store(128).Store(999)
	_ = append(p.Traces[0], want.Ops()[2])
	if p.Traces[2][0] != want.Ops()[0] {
		t.Fatalf("append to trace 0 overwrote trace 2: %+v", p.Traces[2][0])
	}
	// The next program reuses the scratch builders from empty.
	q := Build(2, func(bs []Builder) { bs[1].Barrier() })
	if q.Ops() != 1 || len(q.Traces[0]) != 0 || q.Traces[1][0].Kind() != Barrier {
		t.Fatalf("second program %+v", q.Traces)
	}
	if p.Traces[0][1] != want.Ops()[1] {
		t.Fatalf("a later Build rewrote an earlier program: %+v", p.Traces[0])
	}
}
