// Package mem defines the physical memory vocabulary shared by every layer
// of the simulator: byte addresses, cache-line geometry, access kinds, and
// monotonically versioned store values used by the recovery checker.
package mem

import "fmt"

// LineShift and LineSize describe the 64-byte cache-line geometry used
// throughout the paper's system (Table 1).
const (
	LineShift = 6
	LineSize  = 1 << LineShift // 64 bytes
)

// Addr is a byte address in the simulated physical address space.
type Addr uint64

// Line identifies a cache line (an address with the low 6 bits dropped).
type Line uint64

// LineOf returns the cache line containing a.
func LineOf(a Addr) Line { return Line(a >> LineShift) }

// Addr returns the first byte address of the line.
func (l Line) Addr() Addr { return Addr(l) << LineShift }

// String renders the line as its base address in hex.
func (l Line) String() string { return fmt.Sprintf("line@%#x", uint64(l.Addr())) }

// LinesSpanned reports how many cache lines the byte range [a, a+size)
// touches. A zero-sized range touches no lines.
func LinesSpanned(a Addr, size uint64) int {
	if size == 0 {
		return 0
	}
	first := uint64(a) >> LineShift
	last := (uint64(a) + size - 1) >> LineShift
	return int(last - first + 1)
}

// Kind distinguishes the memory access types the cache hierarchy serves.
type Kind uint8

const (
	// Load is a read access.
	Load Kind = iota
	// Store is a write access.
	Store
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Version is a globally unique, monotonically increasing identity for one
// store's value. The recovery checker compares the versions that reached
// NVRAM against the versions the persistency model promised, without
// simulating actual data bytes.
type Version uint64

// NoVersion marks a line that has never been stored to.
const NoVersion Version = 0

// VersionSource hands out store versions. The zero value starts at 1.
type VersionSource struct{ next Version }

// Next returns a fresh version, strictly greater than all previous ones.
func (v *VersionSource) Next() Version {
	v.next++
	return v.next
}
