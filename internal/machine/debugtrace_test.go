package machine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"persistbarriers/internal/cache"
)

// TestDebugTracePinned holds Machine.DebugTrace to the exact text it
// produced before the dbg call sites were guarded (a guard keeps Go from
// boxing the arguments when tracing is off; with DebugLine set every entry
// must still be written, in the same order, with the same words). The
// machine is the tiny-cache one of TestLivenessDiagnostics and every line
// of the shared region is traced in turn under both flush modes, which
// reaches nine of the eleven sites; "bankFlush skip" and
// "llcApplyWriteback stale-skip" are races this program does not produce.
func TestDebugTracePinned(t *testing.T) {
	h := sha256.New()
	entries := 0
	sites := map[string]int{}
	for _, mode := range []cache.FlushMode{cache.NonInvalidating, cache.Invalidating} {
		for line := uint64(1); line < 32; line++ {
			cfg := testConfig(LB)
			cfg.L1Sets, cfg.L1Ways = 4, 2
			cfg.LLCSets, cfg.LLCWays = 8, 2
			cfg.IDT = true
			cfg.FlushMode = mode
			cfg.DebugLine = line
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Load(randomProgram(21, 4, 200, true)); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			for _, l := range m.DebugTrace() {
				fmt.Fprintln(h, l)
				entries++
				words := strings.Fields(l) // "[cycle] line: site what ..."
				site := words[2]
				if !strings.Contains(words[3], "=") {
					site += " " + words[3]
				}
				sites[site]++
			}
		}
	}
	const wantEntries, want = 1357, "dd5d14416564f525f0a8ef408a263d5894d0313be0c80669293fb48134cb3e27"
	if got := hex.EncodeToString(h.Sum(nil)); entries != wantEntries || got != want || len(sites) != 9 {
		t.Fatalf("DebugTrace moved: %d entries, sha256 %s (want %d, %s)\n%d sites: %v",
			entries, got, wantEntries, want, len(sites), sites)
	}
}
