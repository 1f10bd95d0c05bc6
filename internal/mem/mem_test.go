package mem

import (
	"testing"
	"testing/quick"
)

func TestLineOfAndBack(t *testing.T) {
	cases := []struct {
		addr Addr
		line Line
	}{
		{0, 0},
		{1, 0},
		{63, 0},
		{64, 1},
		{65, 1},
		{127, 1},
		{128, 2},
		{4096, 64},
	}
	for _, c := range cases {
		if got := LineOf(c.addr); got != c.line {
			t.Errorf("LineOf(%d) = %d, want %d", c.addr, got, c.line)
		}
	}
	if Line(5).Addr() != 320 {
		t.Errorf("Line(5).Addr() = %d, want 320", Line(5).Addr())
	}
}

func TestLineOfIsIdempotentOnLineBase(t *testing.T) {
	f := func(raw uint32) bool {
		l := LineOf(Addr(raw))
		return LineOf(l.Addr()) == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinesSpanned(t *testing.T) {
	cases := []struct {
		addr Addr
		size uint64
		want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 64, 1},
		{0, 65, 2},
		{63, 1, 1},
		{63, 2, 2},
		{0, 512, 8},  // a 512 B micro-benchmark entry spans 8 lines
		{32, 512, 9}, // unaligned 512 B entry spans 9 lines
	}
	for _, c := range cases {
		if got := LinesSpanned(c.addr, c.size); got != c.want {
			t.Errorf("LinesSpanned(%d, %d) = %d, want %d", c.addr, c.size, got, c.want)
		}
	}
}

func TestKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" {
		t.Errorf("Kind strings wrong: %q %q", Load, Store)
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind produced empty string")
	}
}

func TestVersionSourceMonotone(t *testing.T) {
	var vs VersionSource
	prev := NoVersion
	for i := 0; i < 1000; i++ {
		v := vs.Next()
		if v <= prev {
			t.Fatalf("version %d not greater than previous %d", v, prev)
		}
		prev = v
	}
}
