// Package state turns the material states of an input deck into initial
// density and energy fields (the generate_chunk kernel's geometry logic),
// one row segment at a time so that every port fills its own storage from
// its own loop.
//
// The geometry rules follow the mini-app: state 1 is the background and
// covers everything including halo cells; later states overwrite cells
// inside their region. Rectangles capture cells fully contained by the
// rectangle (vertex containment), circles capture cells whose centre lies
// within the radius, and points capture the single cell containing the
// point. Because containment is evaluated against physical coordinates, a
// sub-domain with the correct physical offsets generates exactly the same
// cells as a whole-domain run — the property the distributed ports rely on.
package state

import (
	"fmt"
	"math"

	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
)

// containEps absorbs floating-point jitter in vertex-containment tests so
// that state boundaries aligned with cell faces capture the intended cells.
const containEps = 1e-12

// CheckBackground reports whether states can initialise a chunk: the list
// is non-empty and starts with state 1, the background FillRow writes first.
func CheckBackground(states []config.State) error {
	if len(states) == 0 {
		return fmt.Errorf("state: no states to generate")
	}
	if states[0].Index != 1 {
		return fmt.Errorf("state: first state must be state 1 (the background), got state %d", states[0].Index)
	}
	return nil
}

// FillRow writes the initial density and energy of cells i0, i0+1, ... of
// row j of mesh m, one cell per element of density and energy (which have
// the same length), with interior-relative coordinates (halo cells are
// negative or past the mesh). The background applies first, then every later
// state in deck order overwrites the cells it contains, so a cell holds the
// last state containing it whichever segments the row is cut into. states
// must have passed CheckBackground.
func FillRow(m *grid.Mesh, states []config.State, j, i0 int, density, energy []float64) {
	energy = energy[:len(density)]
	bg := states[0]
	for k := range density {
		density[k], energy[k] = bg.Density, bg.Energy
	}
	for _, st := range states[1:] {
		if st.Geometry == config.GeomRectangle {
			// Contains' y half, tested once for the row.
			if !(m.VertexY(j) >= st.YMin-containEps && m.VertexY(j+1) <= st.YMax+containEps) {
				continue
			}
			for k := range density {
				i := i0 + k
				if m.VertexX(i) >= st.XMin-containEps && m.VertexX(i+1) <= st.XMax+containEps {
					density[k], energy[k] = st.Density, st.Energy
				}
			}
			continue
		}
		for k := range density {
			if Contains(st, m, i0+k, j) {
				density[k], energy[k] = st.Density, st.Energy
			}
		}
	}
}

// Contains reports whether cell (i, j) of mesh m belongs to the state's
// region.
func Contains(st config.State, m *grid.Mesh, i, j int) bool {
	switch st.Geometry {
	case config.GeomRectangle:
		return m.VertexX(i) >= st.XMin-containEps && m.VertexX(i+1) <= st.XMax+containEps &&
			m.VertexY(j) >= st.YMin-containEps && m.VertexY(j+1) <= st.YMax+containEps
	case config.GeomCircular:
		dx := m.CellX(i) - st.XMin
		dy := m.CellY(j) - st.YMin
		return math.Sqrt(dx*dx+dy*dy) <= st.Radius+containEps
	case config.GeomPoint:
		return m.VertexX(i) <= st.XMin && st.XMin < m.VertexX(i+1) &&
			m.VertexY(j) <= st.YMin && st.YMin < m.VertexY(j+1)
	default:
		return false
	}
}
