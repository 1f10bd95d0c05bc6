// Package harness is test code outside a test file: no command imports
// it, only cmd/tool's test, so neither its call of lib.HarnessOnly nor
// its own Drive has a user.
package harness

import "fixture/internal/lib"

// Drive is called only from cmd/tool's test.
func Drive() int { return lib.HarnessOnly() }
