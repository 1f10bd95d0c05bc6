// Package lib is the surface gate's planted fixture: of its exports only
// Orphan, TestOnly and HarnessOnly lack a user, and of its fields only
// Tally.Unread is never read.
package lib

import "sync"

// Orphan has no user at all.
func Orphan() {}

// TestOnly is called only from lib_test.go.
func TestOnly() int { return 1 }

// HarnessOnly is called only from internal/harness, which only a test
// imports.
func HarnessOnly() int { return 2 }

// Name is used by cmd/tool.
type Name string

// String is called by no one, but it makes Name a fmt.Stringer.
func (n Name) String() string { return string(n) }

// Guarded is used by cmd/tool, which locks it through the embedded
// mutex: the field is used by promotion alone.
type Guarded struct {
	sync.Mutex
}

// Tally is filled in by cmd/tool, which reads Seen and prints the struct
// as JSON, which reads Emitted; only lib_test.go reads Unread.
type Tally struct {
	Seen    int
	Unread  int
	Emitted int `json:"emitted"`
}
