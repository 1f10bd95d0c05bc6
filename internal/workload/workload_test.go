package workload

import (
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"persistbarriers/internal/mem"
	"persistbarriers/internal/trace"
)

func spec() Spec { return Spec{Threads: 4, OpsPerThread: 50, Seed: 7} }

func TestSpecValidate(t *testing.T) {
	if err := (Spec{Threads: 0, OpsPerThread: 1}).Validate(); err == nil {
		t.Error("zero threads accepted")
	}
	if err := (Spec{Threads: 1, OpsPerThread: 0}).Validate(); err == nil {
		t.Error("zero ops accepted")
	}
	if err := spec().Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestMicrobenchmarkSuiteComplete(t *testing.T) {
	suite := Microbenchmarks()
	names := MicrobenchmarkNames()
	if len(suite) != 5 || len(names) != 5 {
		t.Fatalf("suite size %d, names %d, want 5 (Table 2)", len(suite), len(names))
	}
	for _, n := range names {
		if suite[n] == nil {
			t.Errorf("missing generator %q", n)
		}
	}
}

func TestEveryMicrobenchmarkGenerates(t *testing.T) {
	for name, gen := range Microbenchmarks() {
		p, err := gen(spec())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Cores() != 4 {
			t.Errorf("%s: cores = %d", name, p.Cores())
		}
		if p.Ops() == 0 || p.Stores() == 0 {
			t.Errorf("%s: empty trace (ops=%d stores=%d)", name, p.Ops(), p.Stores())
		}
		// Every micro-benchmark uses programmer barriers and marks
		// transactions.
		var barriers, txs int
		for _, tr := range p.Traces {
			for _, op := range tr {
				switch op.Kind() {
				case trace.Barrier:
					barriers++
				case trace.TxEnd:
					txs++
				}
			}
		}
		if barriers == 0 {
			t.Errorf("%s: no persist barriers", name)
		}
		if txs != 4*50 {
			t.Errorf("%s: txs = %d, want 200", name, txs)
		}
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	for name, gen := range Microbenchmarks() {
		a, err := gen(spec())
		if err != nil {
			t.Fatal(err)
		}
		b, err := gen(spec())
		if err != nil {
			t.Fatal(err)
		}
		if a.Ops() != b.Ops() || a.Stores() != b.Stores() {
			t.Errorf("%s: non-deterministic generation", name)
		}
		for c := range a.Traces {
			for i := range a.Traces[c] {
				if a.Traces[c][i] != b.Traces[c][i] {
					t.Fatalf("%s: trace diverges at core %d op %d", name, c, i)
				}
			}
		}
	}
}

func TestHashEntrySpansEightLines(t *testing.T) {
	p, err := Hash(Spec{Threads: 1, OpsPerThread: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The first op is an insert (empty structure): expect a head load,
	// 8 entry-store lines, barrier, head store, barrier, txend.
	stores := 0
	for _, op := range p.Traces[0] {
		if op.Kind() == trace.Store {
			stores++
		}
	}
	if stores != 9 { // 8 entry lines + 1 head pointer
		t.Errorf("insert stores = %d, want 9", stores)
	}
}

func TestQueueFigure10Pattern(t *testing.T) {
	p, err := Queue(Spec{Threads: 1, OpsPerThread: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Insert: the head-pointer store must come after the entry stores
	// with a barrier in between (Figure 10 ordering).
	var kinds []trace.OpKind
	for _, op := range p.Traces[0] {
		kinds = append(kinds, op.Kind())
	}
	sawEntryStore, sawBarrier, ok := false, false, false
	for _, k := range kinds {
		switch k {
		case trace.Store:
			if sawEntryStore && sawBarrier {
				ok = true // pointer store after barrier
			}
			sawEntryStore = true
		case trace.Barrier:
			if sawEntryStore {
				sawBarrier = true
			}
		}
	}
	if !ok {
		t.Errorf("queue insert lacks entry-store / barrier / pointer-store ordering: %v", kinds)
	}
}

// TestRBTreeInvariants drives the tree through random operation sequences
// and validates the red-black properties after every operation.
func TestRBTreeInvariants(t *testing.T) {
	f := func(seed uint64, opsRaw uint8) bool {
		ops := int(opsRaw%100) + 20
		r := trace.NewRand(seed)
		tr := &rbTree{alloc: newAllocator(0)}
		tr.b = &trace.Builder{}
		live := map[uint64]*rbNode{}
		next := uint64(1)
		for i := 0; i < ops; i++ {
			switch pickOp(r, tr.size) {
			case opInsert:
				live[next] = tr.insert(next)
				next++
			case opDelete:
				ks := sortedKeys(live)
				k := ks[r.Intn(len(ks))]
				if n := tr.search(k); n != nil {
					tr.delete(n)
				}
				delete(live, k)
			case opSearch:
				ks := sortedKeys(live)
				if tr.search(ks[r.Intn(len(ks))]) == nil {
					return false // live key not found
				}
			}
			if err := tr.validate(); err != nil {
				t.Logf("seed=%d ops=%d: %v", seed, i, err)
				return false
			}
			if tr.size != len(live) {
				return false
			}
		}
		// Every live key findable, every deleted key absent.
		for k := range live {
			if tr.search(k) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRBTreeGenerator(t *testing.T) {
	p, err := RBTree(spec())
	if err != nil {
		t.Fatal(err)
	}
	if p.Ops() == 0 {
		t.Fatal("empty rbtree trace")
	}
}

func TestSPSSwapShape(t *testing.T) {
	p, err := SPS(Spec{Threads: 1, OpsPerThread: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	loads, stores, barriers := 0, 0, 0
	for _, op := range p.Traces[0] {
		switch op.Kind() {
		case trace.Load:
			loads++
		case trace.Store:
			stores++
		case trace.Barrier:
			barriers++
		}
	}
	if loads != 16 || stores != 16 || barriers != 2 {
		t.Errorf("swap = %d loads, %d stores, %d barriers; want 16/16/2", loads, stores, barriers)
	}
}

func TestAppsSuiteComplete(t *testing.T) {
	apps := Apps()
	names := AppNames()
	if len(names) != 9 || len(apps) != 9 {
		t.Fatalf("apps = %d, names = %d, want 9", len(apps), len(names))
	}
	for _, n := range names {
		if _, ok := apps[n]; !ok {
			t.Errorf("missing app %q", n)
		}
	}
}

func TestAppProfilesGenerateWithExpectedMix(t *testing.T) {
	for name, prof := range Apps() {
		p, err := prof.Generate(Spec{Threads: 4, OpsPerThread: 2000, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		memOps, stores := 0, 0
		sharedOps := 0
		for _, tr := range p.Traces {
			for _, op := range tr {
				switch op.Kind() {
				case trace.Load, trace.Store:
					memOps++
					if op.Kind() == trace.Store {
						stores++
					}
					if op.Addr() < 0x7000_0000 {
						sharedOps++
					}
				case trace.Barrier:
					t.Fatalf("%s: BSP trace contains a programmer barrier", name)
				}
			}
		}
		gotStore := float64(stores) / float64(memOps)
		if gotStore < prof.StoreRatio-0.05 || gotStore > prof.StoreRatio+0.05 {
			t.Errorf("%s: store ratio %.3f, want ~%.2f", name, gotStore, prof.StoreRatio)
		}
		// Hot accesses are private, so the effective shared fraction is
		// (1-HotFraction)*SharedFraction.
		wantShared := (1 - prof.HotFraction) * prof.SharedFraction
		gotShared := float64(sharedOps) / float64(memOps)
		if gotShared < wantShared-0.05 || gotShared > wantShared+0.05 {
			t.Errorf("%s: shared fraction %.3f, want ~%.2f", name, gotShared, wantShared)
		}
	}
}

func TestSSCA2IsMostWriteAndShareIntensive(t *testing.T) {
	// The paper singles out ssca2 as write-intensive with fine-grained
	// sharing; the profiles must preserve that relationship.
	apps := Apps()
	s := apps["ssca2"]
	for name, p := range apps {
		if name == "ssca2" {
			continue
		}
		if p.StoreRatio > s.StoreRatio {
			t.Errorf("%s store ratio %.2f exceeds ssca2's %.2f", name, p.StoreRatio, s.StoreRatio)
		}
		if p.SharedFraction > s.SharedFraction {
			t.Errorf("%s shared fraction %.2f exceeds ssca2's %.2f", name, p.SharedFraction, s.SharedFraction)
		}
	}
}

func TestAllocatorAlignment(t *testing.T) {
	a := newAllocator(0x1000)
	e1, e2 := a.entry(), a.entry()
	if e2-e1 != EntrySize {
		t.Errorf("entry stride = %d, want %d", e2-e1, EntrySize)
	}
	l := a.line()
	if mem.LineOf(l) == mem.LineOf(e2) {
		t.Error("line allocation overlaps previous entry")
	}
	if base, next := a.entries(3), a.entry(); base != l+mem.LineSize || next != base+3*EntrySize {
		t.Errorf("entries(3) = %#x then entry = %#x, want %#x and %#x",
			uint64(base), uint64(next), uint64(l+mem.LineSize), uint64(l+mem.LineSize+3*EntrySize))
	}
}

func TestPickOpFallsBackToInsertWhenEmpty(t *testing.T) {
	r := trace.NewRand(1)
	for i := 0; i < 200; i++ {
		if op := pickOp(r, 0); op != opInsert {
			t.Fatalf("pickOp on empty structure returned %d", op)
		}
	}
}

// measureGenerate calls gen until the scratch builders have grown, then
// reports its allocations and bytes per call and the bytes of the program
// it returns: the ops, the trace headers and the Program.
func measureGenerate(t *testing.T, gen func() (*trace.Program, error)) (allocs, bytes float64, final uintptr) {
	t.Helper()
	var p *trace.Program
	run := func() {
		var err error
		if p, err = gen(); err != nil {
			t.Fatal(err)
		}
	}
	allocs = testing.AllocsPerRun(10, run)
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	final = uintptr(p.Ops())*unsafe.Sizeof(trace.Op{}) +
		uintptr(len(p.Traces))*unsafe.Sizeof([]trace.Op(nil)) + unsafe.Sizeof(*p)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs, final
}

// TestGenerateAllocs: an app program is allocated once at its final size.
// After the first call has grown the scratch builders, Generate allocates
// at most once per thread plus a few, and at most 1.1× the program's
// own bytes.
func TestGenerateAllocs(t *testing.T) {
	spec := Spec{Threads: 32, OpsPerThread: 400, Seed: 1}
	for _, name := range AppNames() {
		prof := Apps()[name]
		allocs, got, final := measureGenerate(t, func() (*trace.Program, error) { return prof.Generate(spec) })
		if limit := float64(spec.Threads + 4); allocs > limit {
			t.Errorf("%s: Generate allocates %.1f times, want <= %.0f", name, allocs, limit)
		}
		t.Logf("%s: %.1f allocs, %.0f B for a %d B program", name, allocs, got, final)
		if got > 1.1*float64(final) {
			t.Errorf("%s: Generate allocates %.0f B, want <= 1.1 x the program's %d B", name, got, final)
		}
	}
}

// TestMicroGenerateAllocs: a micro-benchmark generator allocates the
// program and the state of the structure it simulates, nothing else. queue
// and sps compute their entries' addresses, so they allocate little beyond
// the program; hash, rbtree and sdg keep chains, nodes and adjacency lists.
func TestMicroGenerateAllocs(t *testing.T) {
	spec := Spec{Threads: 32, OpsPerThread: 40, Seed: 1}
	// Measured: queue 1.03, sps 1.00, hash 1.47, rbtree 1.45, sdg 1.06.
	ceiling := map[string]float64{"queue": 1.1, "sps": 1.1, "hash": 1.6, "rbtree": 1.6, "sdg": 1.2}
	for _, name := range MicrobenchmarkNames() {
		gen := Microbenchmarks()[name]
		allocs, got, final := measureGenerate(t, func() (*trace.Program, error) { return gen(spec) })
		t.Logf("%s: %.1f allocs, %.0f B for a %d B program (%.2fx)", name, allocs, got, final, got/float64(final))
		if got > ceiling[name]*float64(final) {
			t.Errorf("%s: generates with %.0f B, want <= %.2f x the program's %d B", name, got, ceiling[name], final)
		}
	}
}
