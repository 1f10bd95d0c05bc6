package noc

import (
	"testing"
	"testing/quick"
)

func TestDefaultMeshGeometry(t *testing.T) {
	if Rows*Cols != 32 {
		t.Fatalf("%dx%d mesh, want 32 tiles (4x8)", Rows, Cols)
	}
	if got := TileOf(0); got != (Tile{0, 0}) {
		t.Errorf("TileOf(0) = %v", got)
	}
	if got := TileOf(31); got != (Tile{3, 7}) {
		t.Errorf("TileOf(31) = %v", got)
	}
	if got := TileOf(9); got != (Tile{1, 1}) {
		t.Errorf("TileOf(9) = %v", got)
	}
}

func TestTileOfPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("TileOf(32) did not panic")
		}
	}()
	TileOf(32)
}

func TestHops(t *testing.T) {
	cases := []struct {
		a, b Tile
		want int
	}{
		{Tile{0, 0}, Tile{0, 0}, 0},
		{Tile{0, 0}, Tile{0, 7}, 7},
		{Tile{0, 0}, Tile{3, 7}, 10},
		{Tile{2, 3}, Tile{1, 5}, 3},
	}
	for _, c := range cases {
		if got := Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestHopsIsSymmetricAndTriangular(t *testing.T) {
	f := func(ar, ac, br, bc, cr, cc uint8) bool {
		a := Tile{int(ar % 4), int(ac % 8)}
		b := Tile{int(br % 4), int(bc % 8)}
		c := Tile{int(cr % 4), int(cc % 8)}
		if Hops(a, b) != Hops(b, a) {
			return false
		}
		return Hops(a, c) <= Hops(a, b)+Hops(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyGrowsWithDistanceAndPayload(t *testing.T) {
	var m Mesh
	near := m.Latency(Tile{0, 0}, Tile{0, 1}, 0)
	far := m.Latency(Tile{0, 0}, Tile{3, 7}, 0)
	if far <= near {
		t.Errorf("far latency %d not greater than near %d", far, near)
	}
	small := m.Latency(Tile{0, 0}, Tile{0, 1}, 8)
	big := m.Latency(Tile{0, 0}, Tile{0, 1}, 64)
	if big <= small {
		t.Errorf("64B payload latency %d not greater than 8B %d", big, small)
	}
}

func TestLatencyControlMessage(t *testing.T) {
	var m Mesh
	// 1 hop, control message: router(1) + 1 hop * 2 + 0 body flits = 3.
	if got := m.Latency(Tile{0, 0}, Tile{0, 1}, 0); got != 3 {
		t.Errorf("control-message latency = %d, want 3", got)
	}
	// 64B line: 1 head + 4 body flits.
	if got := m.Latency(Tile{0, 0}, Tile{0, 1}, 64); got != 7 {
		t.Errorf("line-transfer latency = %d, want 7", got)
	}
}

func TestSelfMessageStillPaysRouter(t *testing.T) {
	var m Mesh
	if got := m.Latency(Tile{1, 1}, Tile{1, 1}, 0); got != 1 {
		t.Errorf("self latency = %d, want router overhead 1", got)
	}
}

func TestStatsAccounting(t *testing.T) {
	var m Mesh
	m.Latency(Tile{0, 0}, Tile{0, 2}, 64) // 2 hops, 5 flits
	m.Latency(Tile{0, 0}, Tile{0, 0}, 0)  // 0 hops, 1 flit
	s := m.Stats()
	if s.Messages != 2 {
		t.Errorf("Messages = %d, want 2", s.Messages)
	}
	if s.Flits != 6 {
		t.Errorf("Flits = %d, want 6", s.Flits)
	}
	if s.AvgHops != 1.0 {
		t.Errorf("AvgHops = %v, want 1.0", s.AvgHops)
	}
}
