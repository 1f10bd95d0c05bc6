package main

import (
	"testing"

	"fixture/internal/harness"
)

func TestDrive(t *testing.T) {
	if harness.Drive() != 2 {
		t.Fatal("Drive() != 2")
	}
}
