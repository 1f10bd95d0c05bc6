// Package noc models the on-chip interconnection network: a 2D mesh of
// tiles carrying cores, LLC bank slices, and memory controllers (the
// Garnet-modelled network in the paper's methodology, Table 1: 2D mesh,
// 4 rows, 16-byte flits).
//
// The model is analytic rather than flit-level: a message's delivery
// latency is router-pipeline delay per hop plus serialization of its flits.
// Contention inside the mesh is not modelled (the dominant queuing effects
// for this study happen at the memory controllers, which are modelled with
// queues in package nvram); this substitution is documented in DESIGN.md.
package noc

import (
	"fmt"

	"persistbarriers/internal/sim"
)

// FlitBytes is the mesh link width (Table 1: 16-byte flits).
const FlitBytes = 16

// Rows and Cols are the paper's 32-tile mesh (Table 1: 4 rows x 8 columns).
const Rows, Cols = 4, 8

const (
	// perHopCycles is the router pipeline + link traversal cost per hop.
	perHopCycles sim.Cycle = 2
	// routerCycles is the fixed injection/ejection overhead per message.
	routerCycles sim.Cycle = 1
)

// Tile is a coordinate on the mesh.
type Tile struct {
	Row, Col int
}

// String implements fmt.Stringer.
func (t Tile) String() string { return fmt.Sprintf("tile(%d,%d)", t.Row, t.Col) }

// Mesh computes message latencies over the Rows x Cols mesh and accounts
// traffic. The zero value is ready to use.
type Mesh struct {
	messages uint64
	flits    uint64
	hopSum   uint64
}

// TileOf maps a dense node index (0..Rows*Cols-1) to its coordinate,
// row-major.
func TileOf(node int) Tile {
	if node < 0 || node >= Rows*Cols {
		panic(fmt.Sprintf("noc: node %d out of range [0,%d)", node, Rows*Cols))
	}
	return Tile{Row: node / Cols, Col: node % Cols}
}

// Hops returns the Manhattan distance between two tiles (XY routing).
func Hops(a, b Tile) int {
	dr, dc := a.Row-b.Row, a.Col-b.Col
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	return dr + dc
}

// flitsFor returns the flit count for a payload of the given bytes; every
// message carries at least one (head) flit.
func flitsFor(payloadBytes int) int {
	if payloadBytes <= 0 {
		return 1
	}
	return 1 + (payloadBytes+FlitBytes-1)/FlitBytes
}

// Latency returns the delivery latency for a message of payloadBytes from
// tile a to tile b, and records the traffic.
func (m *Mesh) Latency(a, b Tile, payloadBytes int) sim.Cycle {
	hops := Hops(a, b)
	fl := flitsFor(payloadBytes)
	m.messages++
	m.flits += uint64(fl)
	m.hopSum += uint64(hops)
	// Head flit pays the route; body flits pipeline behind it.
	return routerCycles + sim.Cycle(hops)*perHopCycles + sim.Cycle(fl-1)
}

// Stats is a snapshot of accumulated traffic.
type Stats struct {
	Messages uint64
	Flits    uint64
	AvgHops  float64
}

// Stats returns the traffic accounted so far.
func (m *Mesh) Stats() Stats {
	s := Stats{Messages: m.messages, Flits: m.flits}
	if m.messages > 0 {
		s.AvgHops = float64(m.hopSum) / float64(m.messages)
	}
	return s
}
