// Package epoch implements the epoch-tracking hardware of the paper:
// epoch identities, the per-core table of in-flight epochs, the IDT
// (Inter-thread Dependence Tracking) dependence/inform registers, the
// per-core epoch arbiter that orchestrates the multi-bank flush handshake,
// and the deadlock-avoidance epoch-splitting rule of Section 3.3.
package epoch

import "fmt"

// ID identifies one epoch: the core that created it and the core-local
// epoch number (the CoreID+EpochID of cache tags and dependence registers,
// Section 4.3). Anything outside one event names an epoch by ID: epoch n
// holds slot n mod MaxInFlight of its core's Table only until it persists,
// and n is full width, so an ID never names the slot's next epoch.
type ID struct {
	Core int
	Num  uint64
}

// None is the zero tag carried by lines that belong to no unpersisted
// epoch (clean lines, or dirty lines whose epoch already persisted).
var None = ID{Core: -1}

// Valid reports whether the ID names a real epoch.
func (id ID) Valid() bool { return id.Core >= 0 }

// String implements fmt.Stringer.
func (id ID) String() string {
	if !id.Valid() {
		return "epoch(none)"
	}
	return fmt.Sprintf("E%d.%d", id.Core, id.Num)
}

// State is an unpersisted epoch's lifecycle position (Table.IsPersisted).
type State uint8

const (
	// Open: the epoch is still executing; its persist barrier has not
	// retired ("ongoing" in the paper's terms).
	Open State = iota
	// Completed: the barrier retired; the epoch's line set is final.
	Completed
	// Flushing: the arbiter is driving this epoch's flush handshake.
	Flushing
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case Completed:
		return "completed"
	case Flushing:
		return "flushing"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}
