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

func TestRowSlices(t *testing.T) {
	f := New(4, 2)
	f.Set(0, 1, 7)
	f.Set(-2, 1, 5)
	row := f.Row(1)
	if len(row) != f.Stride {
		t.Fatalf("Row length %d, want %d", len(row), f.Stride)
	}
	if row[0] != 5 || row[2] != 7 {
		t.Errorf("Row(1) = %v, want halo at [0] and interior at [2]", row)
	}
	ir := f.InteriorRow(1)
	if len(ir) != 4 || ir[0] != 7 {
		t.Errorf("InteriorRow(1) = %v", ir)
	}
	ir[3] = 9
	if f.At(3, 1) != 9 {
		t.Error("InteriorRow must alias the field storage")
	}
}

func TestFieldCopyCloneDiff(t *testing.T) {
	a := New(6, 4)
	for j := -2; j < 6; j++ {
		for i := -2; i < 8; i++ {
			a.Set(i, j, float64(i*10+j))
		}
	}
	b := a.Clone()
	if d := a.MaxAbsDiff(b); d != 0 {
		t.Errorf("clone differs by %g", d)
	}
	b.Set(2, 2, 1e9)
	if d := a.MaxAbsDiff(b); math.Abs(d-(1e9-22)) > 1 {
		t.Errorf("MaxAbsDiff = %g", d)
	}
	c := New(6, 4)
	c.CopyFrom(a)
	if d := a.MaxAbsDiff(c); d != 0 {
		t.Errorf("CopyFrom differs by %g", d)
	}
}

func TestFieldPanics(t *testing.T) {
	mustPanic(t, "zero extent", func() { NewField(0, 3, 2) })
	mustPanic(t, "negative halo", func() { NewField(2, 2, -1) })
	mustPanic(t, "shape mismatch", func() {
		a, b := New(2, 2), New(3, 2)
		a.CopyFrom(b)
	})
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

func TestRangeOps(t *testing.T) {
	r := Range{FromX: 0, ToX: 4, FromY: 1, ToY: 3}
	if r.Cells() != 8 {
		t.Errorf("Cells = %d, want 8", r.Cells())
	}
	if got := r.Expand(1); got.Cells() != 6*4 {
		t.Errorf("Expand(1).Cells = %d, want 24", got.Cells())
	}
	inter := r.Intersect(Range{FromX: 2, ToX: 10, FromY: 0, ToY: 2})
	if inter != (Range{FromX: 2, ToX: 4, FromY: 1, ToY: 2}) {
		t.Errorf("Intersect = %+v", inter)
	}
	empty := r.Intersect(Range{FromX: 5, ToX: 9, FromY: 0, ToY: 9})
	if !empty.Empty() || empty.Cells() != 0 {
		t.Errorf("expected empty intersection, got %+v", empty)
	}
}

// TestRangeIntersectProperty: intersection is commutative and never larger
// than either operand (quick-check).
func TestRangeIntersectProperty(t *testing.T) {
	f := func(a0, a1, b0, b1, c0, c1, d0, d1 int8) bool {
		r1 := Range{FromX: int(a0), ToX: int(a1), FromY: int(b0), ToY: int(b1)}
		r2 := Range{FromX: int(c0), ToX: int(c1), FromY: int(d0), ToY: int(d1)}
		i1 := r1.Intersect(r2)
		i2 := r2.Intersect(r1)
		if i1 != i2 {
			return false
		}
		return i1.Cells() <= max(r1.Cells(), 0) || r1.Cells() == 0 ||
			i1.Cells() <= r1.Cells()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
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

// TestRowAliasesData: Row and InteriorRow must be views, not copies, and
// MaxAbsDiff must ignore halo contents.
func TestMaxAbsDiffIgnoresHalo(t *testing.T) {
	a := New(3, 3)
	b := New(3, 3)
	a.Set(-2, -2, 99) // halo-only difference
	if d := a.MaxAbsDiff(b); d != 0 {
		t.Errorf("halo difference leaked into MaxAbsDiff: %g", d)
	}
	mustPanic(t, "extent mismatch", func() { a.MaxAbsDiff(New(4, 3)) })
}

// TestZeroAndFill cover the bulk initialisation paths.
func TestZeroAndFill(t *testing.T) {
	f := New(4, 4)
	f.Fill(3)
	if f.At(-2, -2) != 3 || f.At(5, 5) != 3 {
		t.Error("Fill must cover the halo")
	}
	f.Zero()
	for _, v := range f.Data {
		if v != 0 {
			t.Fatal("Zero left data behind")
		}
	}
}

// TestSameShape covers the shape comparison helper.
func TestSameShape(t *testing.T) {
	if !New(3, 4).SameShape(New(3, 4)) {
		t.Error("identical shapes reported different")
	}
	if New(3, 4).SameShape(New(4, 3)) {
		t.Error("different shapes reported same")
	}
	if New(3, 4).SameShape(NewField(3, 4, 1)) {
		t.Error("different halos reported same")
	}
}

// TestTotalCellsAndString exercise the remaining accessors.
func TestTotalCellsAndString(t *testing.T) {
	f := New(3, 2)
	if f.TotalCells() != 7*6 {
		t.Errorf("TotalCells = %d", f.TotalCells())
	}
	r := Range{FromX: 0, ToX: 3, FromY: 1, ToY: 2}
	if r.String() != "[0,3)x[1,2)" {
		t.Errorf("Range.String = %q", r.String())
	}
	m, _ := NewMesh(0, 3, 0, 2, 3, 2)
	if m.String() == "" {
		t.Error("Mesh.String empty")
	}
}
