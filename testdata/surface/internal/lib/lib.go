// Package lib is the surface gate's planted fixture: of its exports only
// Orphan and TestOnly lack a user.
package lib

import "sync"

// Orphan has no user at all.
func Orphan() {}

// TestOnly is called only from lib_test.go.
func TestOnly() int { return 1 }

// Name is used by cmd/tool.
type Name string

// String is called by no one, but it makes Name a fmt.Stringer.
func (n Name) String() string { return string(n) }

// Guarded is used by cmd/tool, which locks it through the embedded
// mutex: the field is used by promotion alone.
type Guarded struct {
	sync.Mutex
}
