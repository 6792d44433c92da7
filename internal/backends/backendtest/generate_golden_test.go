package backendtest

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/serial"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
)

// generateDeck is a mesh and a state list, Generate's whole input.
type generateDeck struct {
	nx, ny int
	states []config.State
}

// generateDecks cover every geometry over [0,10]²: on 48x40 the two-rank
// cut is the row y = 5 and every rectangle below straddles both mid-lines; on
// 1x37 and 37x1 one cell spans the short extent and the cut runs across the
// long one. The bm rectangle's edges lie on cell faces of the 40-row mesh.
func generateDecks() map[string]generateDeck {
	bg := config.State{Index: 1, Density: 100, Energy: 0.0001, Geometry: config.GeomRectangle}
	rect := func(idx int, d, e, x0, x1, y0, y1 float64) config.State {
		return config.State{Index: idx, Density: d, Energy: e, Geometry: config.GeomRectangle, XMin: x0, XMax: x1, YMin: y0, YMax: y1}
	}
	circle := func(idx int, d, e, x, y, r float64) config.State {
		return config.State{Index: idx, Density: d, Energy: e, Geometry: config.GeomCircular, XMin: x, YMin: y, Radius: r}
	}
	point := func(idx int, d, e, x, y float64) config.State {
		return config.State{Index: idx, Density: d, Energy: e, Geometry: config.GeomPoint, XMin: x, YMin: y}
	}
	return map[string]generateDeck{
		"cut_rectangle": {48, 40, []config.State{bg,
			rect(2, 0.1, 25, 0, 1, 1, 2),
			rect(3, 2, 3, 2.6, 7.3, 3.1, 6.9)}},
		"geometries": {48, 40, []config.State{bg,
			circle(2, 5, 10, 6.5, 5.2, 2.3),
			point(3, 9, 9, 3.3, 8.1),
			rect(4, 1, 1, 1, 6, 2, 7),
			rect(5, 4, 4, 4, 9, 4.5, 9),
			circle(6, 7, 0.5, 2, 2, 1.5)}},
		"column": {1, 37, []config.State{bg,
			rect(2, 0.1, 25, 0, 10, 3, 6.5),
			circle(3, 5, 10, 5, 7, 1.7),
			point(4, 9, 9, 5, 0.1),
			rect(5, 2, 3, 0, 10, 6, 9)}},
		"row": {37, 1, []config.State{bg,
			rect(2, 0.1, 25, 3, 6.5, 0, 10),
			circle(3, 5, 10, 7, 5, 1.7),
			point(4, 9, 9, 0.1, 5),
			rect(5, 2, 3, 6, 9, 0, 10)}},
	}
}

// generateGolden is an FNV-1a hash of manual-serial's interior density then
// energy0 bits per deck, captured before the ports filled their fields
// through a shared row body.
var generateGolden = map[string]uint64{
	"column":        0x4d29d77329f6a9de,
	"cut_rectangle": 0x98e6d35ded7610ed,
	"geometries":    0x4ce75bf367900e5d,
	"row":           0x4d29d77329f6a9de, // column transposed: the same cells in the same order
}

// generated runs Generate alone on a fresh k and returns its interior
// density and energy0.
func generated(t *testing.T, k driver.Kernels, d generateDeck) (density, energy []float64) {
	t.Helper()
	defer k.Close()
	m, err := grid.NewMesh(0, 10, 0, 10, d.nx, d.ny)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Generate(m, d.states); err != nil {
		t.Fatalf("%s: generate: %v", k.Name(), err)
	}
	return k.FetchField(driver.FieldDensity), k.FetchField(driver.FieldEnergy0)
}

func fieldHash(fields ...[]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, f := range fields {
		for _, v := range f {
			bits := math.Float64bits(v)
			for i := range b {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestGenerateGolden pins generate_chunk on its own: after Generate every
// version's interior density and energy0 equal manual-serial's bit for bit,
// and manual-serial's hash to the golden value.
func TestGenerateGolden(t *testing.T) {
	var missing []string
	for name, deck := range generateDecks() {
		wantD, wantE := generated(t, serial.New(), deck)
		if len(wantD) != deck.nx*deck.ny || len(wantE) != deck.nx*deck.ny {
			t.Fatalf("%s: fetched %d and %d cells, want %d", name, len(wantD), len(wantE), deck.nx*deck.ny)
		}
		for _, st := range deck.states {
			if !slices.Contains(wantD, st.Density) {
				t.Errorf("%s: state %d captures no cell", name, st.Index)
			}
		}
		if want, ok := generateGolden[name]; !ok {
			missing = append(missing, fmt.Sprintf("\t%q: %#x,", name, fieldHash(wantD, wantE)))
		} else if got := fieldHash(wantD, wantE); got != want {
			t.Errorf("%s: manual-serial hash %#x, golden %#x", name, got, want)
		}
		for _, c := range segmentCases() {
			d, e := generated(t, c.factory(), deck)
			if !equalBits(d, wantD) || !equalBits(e, wantE) {
				t.Errorf("%s/%s: generated fields differ from manual-serial", c.label, name)
			}
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Errorf("no golden entry for:\n%s", strings.Join(missing, "\n"))
	}
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
