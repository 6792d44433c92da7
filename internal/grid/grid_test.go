package grid

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFieldIndexing(t *testing.T) {
	f := New(5, 3)
	if f.Stride != 9 {
		t.Fatalf("stride = %d, want 9", f.Stride)
	}
	if got, want := len(f.Data), 9*7; got != want {
		t.Fatalf("allocation = %d cells, want %d", got, want)
	}
	// Idx must be a bijection over the padded extent.
	seen := map[int]bool{}
	for j := -2; j < 5; j++ {
		for i := -2; i < 7; i++ {
			at := f.Idx(i, j)
			if at < 0 || at >= len(f.Data) {
				t.Fatalf("Idx(%d,%d) = %d out of range", i, j, at)
			}
			if seen[at] {
				t.Fatalf("Idx(%d,%d) = %d collides", i, j, at)
			}
			seen[at] = true
		}
	}
	f.Set(-2, -2, 1)
	f.Set(6, 4, 2)
	if f.Data[0] != 1 || f.Data[len(f.Data)-1] != 2 {
		t.Error("corner cells do not map to the slice ends")
	}
}

func TestFieldPanics(t *testing.T) {
	mustPanic(t, "zero extent", func() { NewField(0, 3, 2) })
	mustPanic(t, "negative halo", func() { NewField(2, 2, -1) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestMeshGeometry(t *testing.T) {
	m, err := NewMesh(0, 10, 0, 2, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dx != 1 || m.Dy != 1 {
		t.Fatalf("dx,dy = %g,%g", m.Dx, m.Dy)
	}
	if m.CellX(0) != 0.5 || m.CellY(1) != 1.5 {
		t.Errorf("cell centres wrong: %g, %g", m.CellX(0), m.CellY(1))
	}
	if m.VertexX(10) != 10 {
		t.Errorf("VertexX(10) = %g", m.VertexX(10))
	}
	if m.CellVolume() != 1 {
		t.Errorf("CellVolume = %g", m.CellVolume())
	}
}

func TestMeshErrors(t *testing.T) {
	if _, err := NewMesh(0, 10, 0, 10, 0, 5); err == nil {
		t.Error("expected error for zero cells")
	}
	if _, err := NewMesh(5, 5, 0, 10, 3, 3); err == nil {
		t.Error("expected error for empty extent")
	}
}

// TestSubMeshProperty: a sub-mesh's cell centres must coincide with the
// parent's at the offset position, for any valid offset (quick-check) —
// the property distributed state generation relies on.
func TestSubMeshProperty(t *testing.T) {
	parent, err := NewMesh(-3, 7, 2, 12, 40, 50)
	if err != nil {
		t.Fatal(err)
	}
	f := func(x0u, y0u, nxu, nyu uint8) bool {
		x0 := int(x0u) % 30
		y0 := int(y0u) % 40
		nx := 1 + int(nxu)%(40-x0)
		ny := 1 + int(nyu)%(50-y0)
		sub := parent.Sub(x0, y0, nx, ny)
		for _, probe := range [][2]int{{0, 0}, {nx - 1, ny - 1}, {nx / 2, ny / 2}} {
			i, j := probe[0], probe[1]
			if math.Abs(sub.CellX(i)-parent.CellX(x0+i)) > 1e-12 {
				return false
			}
			if math.Abs(sub.CellY(j)-parent.CellY(y0+j)) > 1e-12 {
				return false
			}
		}
		return sub.Dx == parent.Dx && sub.Dy == parent.Dy
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTotalCellsAndString exercises Field.TotalCells and Mesh.String.
func TestTotalCellsAndString(t *testing.T) {
	f := New(3, 2)
	if f.TotalCells() != 7*6 {
		t.Errorf("TotalCells = %d", f.TotalCells())
	}
	m, _ := NewMesh(0, 3, 0, 2, 3, 2)
	if m.String() == "" {
		t.Error("Mesh.String empty")
	}
}
