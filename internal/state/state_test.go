package state

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
)

func mesh(t *testing.T, nx, ny int) *grid.Mesh {
	t.Helper()
	m, err := grid.NewMesh(0, 10, 0, 10, nx, ny)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// generate fills density and energy fields with halo depth over mesh m a
// whole row at a time, as the host-resident ports do.
func generate(t *testing.T, m *grid.Mesh, states []config.State, depth int) (d, e *grid.Field) {
	t.Helper()
	if err := CheckBackground(states); err != nil {
		t.Fatal(err)
	}
	d, e = grid.NewField(m.Nx, m.Ny, depth), grid.NewField(m.Nx, m.Ny, depth)
	for j := -depth; j < m.Ny+depth; j++ {
		row := (j + depth) * d.Stride
		FillRow(m, states, j, -depth, d.Data[row:row+d.Stride], e.Data[row:row+e.Stride])
	}
	return d, e
}

func TestBackgroundCoversHalo(t *testing.T) {
	m := mesh(t, 10, 10)
	states := []config.State{{Index: 1, Density: 7, Energy: 3}}
	d, e := generate(t, m, states, 2)
	for j := -2; j < 12; j++ {
		for i := -2; i < 12; i++ {
			if d.At(i, j) != 7 || e.At(i, j) != 3 {
				t.Fatalf("cell (%d,%d) = (%g,%g), want (7,3)", i, j, d.At(i, j), e.At(i, j))
			}
		}
	}
}

func TestRectangleVertexContainment(t *testing.T) {
	// 10x10 cells over [0,10]: state 2 covers [2,5]x[3,7] -> exactly cells
	// i in [2,5), j in [3,7).
	m := mesh(t, 10, 10)
	states := []config.State{
		{Index: 1, Density: 1, Energy: 1},
		{Index: 2, Density: 2, Energy: 2, Geometry: config.GeomRectangle,
			XMin: 2, XMax: 5, YMin: 3, YMax: 7},
	}
	d, _ := generate(t, m, states, 2)
	for j := 0; j < 10; j++ {
		for i := 0; i < 10; i++ {
			inside := i >= 2 && i < 5 && j >= 3 && j < 7
			want := 1.0
			if inside {
				want = 2
			}
			if d.At(i, j) != want {
				t.Errorf("cell (%d,%d) = %g, want %g", i, j, d.At(i, j), want)
			}
		}
	}
}

func TestPartialCellsExcluded(t *testing.T) {
	// A rectangle ending mid-cell must not capture the partially-covered
	// cell (TeaLeaf's full-containment rule).
	m := mesh(t, 10, 10)
	st := config.State{Index: 2, Density: 2, Energy: 2, Geometry: config.GeomRectangle,
		XMin: 0, XMax: 2.5, YMin: 0, YMax: 10}
	if !Contains(st, m, 1, 0) {
		t.Error("cell 1 fully inside must be captured")
	}
	if Contains(st, m, 2, 0) {
		t.Error("cell 2 is only half covered and must not be captured")
	}
}

func TestCircleCentreContainment(t *testing.T) {
	m := mesh(t, 10, 10)
	st := config.State{Index: 2, Density: 2, Energy: 2, Geometry: config.GeomCircular,
		XMin: 5, YMin: 5, Radius: 2}
	// Cell (4,4) has centre (4.5,4.5), distance ~0.707 -> in.
	if !Contains(st, m, 4, 4) {
		t.Error("cell (4,4) must be inside the circle")
	}
	// Cell (7,5) centre (7.5,5.5): distance ~2.55 -> out.
	if Contains(st, m, 7, 5) {
		t.Error("cell (7,5) must be outside the circle")
	}
	// Exactly on the radius (cell centre (5.5,7.5), distance 2.55? choose
	// centre (5,7.5): no cell there; test the boundary epsilon with centre
	// (5.5, 7.5) => dist = sqrt(0.25+6.25)... instead: centre (5.5,5.5)
	// dist sqrt(0.5) < 2 -> in.
	if !Contains(st, m, 5, 5) {
		t.Error("cell (5,5) must be inside the circle")
	}
}

func TestPointCapturesSingleCell(t *testing.T) {
	m := mesh(t, 10, 10)
	states := []config.State{
		{Index: 1, Density: 1, Energy: 1},
		{Index: 2, Density: 9, Energy: 9, Geometry: config.GeomPoint, XMin: 3.5, YMin: 6.5},
	}
	d, _ := generate(t, m, states, 0)
	count := 0
	for j := 0; j < 10; j++ {
		for i := 0; i < 10; i++ {
			if d.At(i, j) == 9 {
				count++
				if i != 3 || j != 6 {
					t.Errorf("point captured cell (%d,%d), want (3,6)", i, j)
				}
			}
		}
	}
	if count != 1 {
		t.Errorf("point captured %d cells, want 1", count)
	}
}

func TestLaterStatesOverwrite(t *testing.T) {
	m := mesh(t, 4, 4)
	states := []config.State{
		{Index: 1, Density: 1, Energy: 1},
		{Index: 2, Density: 2, Energy: 2, Geometry: config.GeomRectangle, XMin: 0, XMax: 10, YMin: 0, YMax: 10},
		{Index: 3, Density: 3, Energy: 3, Geometry: config.GeomRectangle, XMin: 0, XMax: 10, YMin: 0, YMax: 5},
	}
	d, _ := generate(t, m, states, 0)
	if d.At(0, 0) != 3 || d.At(0, 3) != 2 {
		t.Errorf("overwrite order wrong: bottom %g (want 3), top %g (want 2)", d.At(0, 0), d.At(0, 3))
	}
}

// TestGenerateErrors: the background check every port's Generate makes
// before filling.
func TestGenerateErrors(t *testing.T) {
	if err := CheckBackground(nil); err == nil {
		t.Error("expected error for empty state list")
	}
	bad := []config.State{{Index: 2, Density: 1, Energy: 1}}
	if err := CheckBackground(bad); err == nil {
		t.Error("expected error when state 1 is missing")
	}
	if err := CheckBackground([]config.State{{Index: 1, Density: 1, Energy: 1}}); err != nil {
		t.Errorf("background alone rejected: %v", err)
	}
}

// TestDecompositionInvariance (property): generating on a randomly-chosen
// sub-mesh must reproduce the corresponding region of a whole-mesh
// generation — the invariant distributed ports rely on.
func TestDecompositionInvariance(t *testing.T) {
	const nx, ny = 24, 18
	parent := mesh(t, nx, ny)
	parent, _ = grid.NewMesh(0, 10, 0, 10, nx, ny)
	states := []config.State{
		{Index: 1, Density: 100, Energy: 0.0001},
		{Index: 2, Density: 0.1, Energy: 25, Geometry: config.GeomRectangle, XMin: 0, XMax: 1, YMin: 1, YMax: 2},
		{Index: 3, Density: 5, Energy: 10, Geometry: config.GeomCircular, XMin: 7, YMin: 7, Radius: 2},
	}
	whole, _ := generate(t, parent, states, 2)
	f := func(x0u, y0u, wu, hu uint8) bool {
		x0 := int(x0u) % (nx - 1)
		y0 := int(y0u) % (ny - 1)
		w := 1 + int(wu)%(nx-x0)
		h := 1 + int(hu)%(ny-y0)
		sub := parent.Sub(x0, y0, w, h)
		local, _ := generate(t, sub, states, 0)
		for j := 0; j < h; j++ {
			for i := 0; i < w; i++ {
				if local.At(i, j) != whole.At(x0+i, y0+j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// oracleCell is the per-cell reference FillRow must match bit for bit: the
// background, then Contains for every later state in deck order.
func oracleCell(m *grid.Mesh, states []config.State, i, j int) (density, energy float64) {
	density, energy = states[0].Density, states[0].Energy
	for _, st := range states[1:] {
		if Contains(st, m, i, j) {
			density, energy = st.Density, st.Energy
		}
	}
	return density, energy
}

// TestFillRowMatchesContains compares FillRow with the per-cell oracle on
// every cell, halo depths 0 to 2, over the whole mesh and over sub-meshes
// offset in x and y as MPI chunks are, with every row cut into segments that
// start mid-row. The rectangles' edges sit within containEps of a vertex on
// either side, or just beyond it.
func TestFillRowMatchesContains(t *testing.T) {
	parent := mesh(t, 24, 18) // dx = 10/24, dy = 10/18
	vx, vy := parent.VertexX(5), parent.VertexY(4)
	states := []config.State{
		{Index: 1, Density: 100, Energy: 0.0001},
		{Index: 2, Density: 0.1, Energy: 25, Geometry: config.GeomRectangle, XMin: 0, XMax: 1, YMin: 1, YMax: 2},
		{Index: 3, Density: 2, Energy: 3, Geometry: config.GeomRectangle,
			XMin: vx + containEps/2, XMax: parent.VertexX(15) - containEps/2, YMin: vy - containEps/2, YMax: parent.VertexY(12) + containEps/2},
		{Index: 4, Density: 4, Energy: 5, Geometry: config.GeomRectangle,
			XMin: parent.VertexX(8) + 3*containEps, XMax: parent.VertexX(20), YMin: parent.VertexY(2), YMax: parent.VertexY(9) - 3*containEps},
		{Index: 5, Density: 5, Energy: 10, Geometry: config.GeomCircular, XMin: 7, YMin: 6.5, Radius: 2.2},
		{Index: 6, Density: 9, Energy: 9, Geometry: config.GeomPoint, XMin: 3.3, YMin: 8.1},
		{Index: 7, Density: 6, Energy: 7, Geometry: config.GeomCircular, XMin: parent.CellX(3), YMin: parent.CellY(14), Radius: parent.Dx},
	}
	meshes := map[string]*grid.Mesh{
		"whole":   parent,
		"x_off":   parent.Sub(7, 0, 11, 18),
		"y_off":   parent.Sub(0, 5, 24, 9),
		"xy_off":  parent.Sub(13, 10, 11, 8),
		"one_col": parent.Sub(9, 3, 1, 12),
	}
	captured := map[float64]bool{}
	for name, m := range meshes {
		for depth := 0; depth <= 2; depth++ {
			width := m.Nx + 2*depth
			for j := -depth; j < m.Ny+depth; j++ {
				// Cut the row at a position that moves with j, so segments
				// start at every offset across the rows.
				cut := -depth + j%(width+1)
				if cut < -depth {
					cut += width + 1
				}
				d := make([]float64, width)
				e := make([]float64, width)
				for _, s := range [][2]int{{-depth, cut}, {cut, m.Nx + depth}} {
					lo, hi := s[0]+depth, s[1]+depth
					FillRow(m, states, j, s[0], d[lo:hi], e[lo:hi])
				}
				for k := range d {
					i := k - depth
					wd, we := oracleCell(m, states, i, j)
					if math.Float64bits(d[k]) != math.Float64bits(wd) || math.Float64bits(e[k]) != math.Float64bits(we) {
						t.Fatalf("%s depth %d cell (%d,%d) = (%v,%v), oracle (%v,%v)", name, depth, i, j, d[k], e[k], wd, we)
					}
					captured[d[k]] = true
				}
			}
		}
	}
	for _, st := range states {
		if !captured[st.Density] {
			t.Errorf("state %d captured no cell: the case pins nothing", st.Index)
		}
	}
}

// TestFillRowEpsEdges: a rectangle edge within containEps of a vertex
// captures the cell on the inside, one 3*containEps inside excludes it.
func TestFillRowEpsEdges(t *testing.T) {
	m := mesh(t, 10, 10) // vertices on the integers
	fill := func(x0, x1 float64) []float64 {
		states := []config.State{{Index: 1, Density: 1, Energy: 1},
			{Index: 2, Density: 2, Energy: 2, Geometry: config.GeomRectangle, XMin: x0, XMax: x1, YMin: 0, YMax: 10}}
		d, e := make([]float64, 10), make([]float64, 10)
		FillRow(m, states, 4, 0, d, e)
		return d
	}
	if d := fill(3+containEps/2, 6-containEps/2); d[3] != 2 || d[5] != 2 || d[2] != 1 || d[6] != 1 {
		t.Errorf("edges within containEps: %v", d)
	}
	if d := fill(3+3*containEps, 6-3*containEps); d[3] != 1 || d[5] != 1 || d[4] != 2 {
		t.Errorf("edges 3*containEps inside: %v", d)
	}
}
