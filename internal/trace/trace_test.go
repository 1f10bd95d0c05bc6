package trace

import (
	"testing"
	"testing/quick"

	"persistbarriers/internal/mem"
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
		if ops[i].Kind != k {
			t.Errorf("op %d kind = %v, want %v", i, ops[i].Kind, k)
		}
	}
	if ops[0].Addr != 64 || ops[1].Addr != 128 || ops[2].Cycles != 10 {
		t.Errorf("operand values wrong: %+v", ops[:3])
	}
}

func TestComputeZeroIsElided(t *testing.T) {
	var b Builder
	b.Compute(0)
	if b.Len() != 0 {
		t.Fatal("zero-cycle compute was appended")
	}
}

func TestStoreRangeCoversEveryLine(t *testing.T) {
	var b Builder
	b.StoreRange(0, 512) // the paper's 512 B entry: 8 lines
	if b.Len() != 8 {
		t.Fatalf("512B store range = %d ops, want 8", b.Len())
	}
	for i, op := range b.Ops() {
		if op.Kind != Store {
			t.Fatalf("op %d kind = %v", i, op.Kind)
		}
		if mem.LineOf(op.Addr) != mem.Line(i) {
			t.Fatalf("op %d line = %v, want %d", i, mem.LineOf(op.Addr), i)
		}
	}
}

func TestLoadRangeUnaligned(t *testing.T) {
	var b Builder
	b.LoadRange(32, 512)
	if b.Len() != 9 {
		t.Fatalf("unaligned 512B load range = %d ops, want 9", b.Len())
	}
}

func TestProgramCounts(t *testing.T) {
	var a, b Builder
	a.Store(0).Store(64).Load(0).TxEnd()
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
	kinds := []OpKind{Compute, Load, Store, Barrier, TxEnd, OpKind(99)}
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
	_ = append(p.Traces[0], Op{Kind: Store, Addr: 999})
	if p.Traces[2][0] != (Op{Kind: Compute, Cycles: 5}) {
		t.Fatalf("append to trace 0 overwrote trace 2: %+v", p.Traces[2][0])
	}
	// The next program reuses the scratch builders from empty.
	q := Build(2, func(bs []Builder) { bs[1].Barrier() })
	if q.Ops() != 1 || len(q.Traces[0]) != 0 || q.Traces[1][0].Kind != Barrier {
		t.Fatalf("second program %+v", q.Traces)
	}
	if p.Traces[0][1] != (Op{Kind: Store, Addr: 128}) {
		t.Fatalf("a later Build rewrote an earlier program: %+v", p.Traces[0])
	}
}
