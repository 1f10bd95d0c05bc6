// Package profiling is the -cpuprofile/-memprofile plumbing the
// simulator CLIs (persistsim, figures) share: Start once after flag
// parsing, and leave main only through Exit or past a deferred Stop, or
// the profile files are left truncated.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

var (
	stopped        bool
	cpuProfileFile *os.File
	memProfilePath string
)

// Start begins CPU profiling into cpu and/or arms a heap-profile dump to
// mem ("" skips either).
func Start(cpu, mem string) error {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		cpuProfileFile = f
	}
	memProfilePath = mem
	return nil
}

// Stop finishes the CPU profile and writes the heap profile. Idempotent:
// safe to call from both a defer and Exit.
func Stop() {
	if stopped {
		return
	}
	stopped = true
	if cpuProfileFile != nil {
		pprof.StopCPUProfile()
		cpuProfileFile.Close()
	}
	if memProfilePath != "" {
		f, err := os.Create(memProfilePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
			return
		}
		runtime.GC() // settle live-heap numbers before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
		}
		f.Close()
	}
}

// Exit terminates the process after flushing any active profiles.
func Exit(code int) {
	Stop()
	os.Exit(code)
}
