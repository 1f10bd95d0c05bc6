package lib

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly() != 1 {
		t.Fatal("TestOnly() != 1")
	}
}

func TestTallyUnread(t *testing.T) {
	if (Tally{Unread: 1}).Unread != 1 {
		t.Fatal("Unread != 1")
	}
}
