package kern

import (
	"math/rand"
	"slices"
	"testing"
)

// The At forms are held, with ==, to the Row bodies they address: the same
// fields once as flat row-major arrays and once as the three rows (j-1, j,
// j+1) the Row bodies take, over a run [x0, x1) strictly inside row j.

// flatFields returns n flat fields of three rows of width nx+2*d, values in
// (0.1, 1.1), and row(f, j), the full halo'd row j of one of them.
func flatFields(rng *rand.Rand, nx, n int) (fields [][]float64, stride int, row func(f []float64, j int) []float64) {
	stride = nx + 2*d
	fields = make([][]float64, n)
	for k := range fields {
		fields[k] = make([]float64, 3*stride)
		for i := range fields[k] {
			fields[k][i] = 0.1 + rng.Float64()
		}
	}
	return fields, stride, func(f []float64, j int) []float64 { return f[j*stride : (j+1)*stride] }
}

func TestAtFormsMatchRowBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, nx := range []int{1, 2, 5, 64, 67} {
		for _, run := range [][2]int{{0, nx}, {0, 1}, {nx - 1, nx}, {nx / 3, nx/3 + (nx+1)/2}} {
			x0, x1 := run[0], run[1]
			a, stride, row := flatFields(rng, nx, 7)
			b := clone(a)
			lo, hi := stride+d+x0, stride+d+x1 // row 1, cells [x0, x1)
			at, n := d+x0, x1-x0               // the same run as a Row body's d and nx

			OperatorAt(a[0], a[1], a[2], a[3], stride, lo, hi)
			OperatorRow(row(b[0], 1), row(b[1], 1), row(b[1], 2), row(b[1], 0), row(b[2], 1), row(b[3], 1), row(b[3], 2), at, n)

			gotW := OperatorDotAt(0.375, a[0], a[1], a[2], a[3], stride, lo, hi)
			wantW := OperatorDotRow(0.375, row(b[0], 1), row(b[1], 1), row(b[1], 2), row(b[1], 0), row(b[2], 1), row(b[3], 1), row(b[3], 2), at, n)
			if gotW != wantW {
				t.Errorf("nx=%d run %v: OperatorDotAt accumulator %x, OperatorDotRow %x", nx, run, gotW, wantW)
			}

			gotJ := JacobiAt(0.375, a[4], a[1], a[5], a[2], a[3], stride, lo, hi)
			wantJ := JacobiRow(0.375, row(b[4], 1), row(b[1], 1), row(b[1], 2), row(b[1], 0), row(b[5], 1),
				row(b[2], 1), row(b[3], 1), row(b[3], 2), at, n)
			if gotJ != wantJ {
				t.Errorf("nx=%d run %v: JacobiAt accumulator %x, JacobiRow %x", nx, run, gotJ, wantJ)
			}

			DiagInvAt(a[6], a[2], a[3], stride, lo, hi)
			DiagInvRow(row(b[6], 1), row(b[2], 1), row(b[3], 1), row(b[3], 2), at, n)
			for k := range a {
				if !slices.Equal(a[k], b[k]) {
					t.Fatalf("nx=%d run %v: field %d differs between the At and Row forms", nx, run, k)
				}
			}

			// FaceCoefRow covers one cell either side of its nx, so the run
			// [x0, x1) is its cells [-1, n-1) from an origin one past x0.
			FaceCoefAt(a[2], a[3], a[1], 0.75, 1.25, stride, lo, hi)
			FaceCoefRow(row(b[2], 1), row(b[3], 1), row(b[1], 1), row(b[1], 0), 0.75, 1.25, at+1, n-2)

			// The Thomas factor and solve take a whole row.
			ThomasFactorAt(a[0], a[1], a[2], a[3], a[4], a[5], stride, stride+d, stride+d+nx)
			ThomasFactorRow(row(b[0], 1), row(b[1], 1), row(b[2], 1), row(b[3], 1), row(b[3], 2), row(b[4], 1), row(b[5], 1), d, nx)
			ThomasSolveAt(a[6], a[0], a[2], a[4], a[5], stride+d, stride+d+nx)
			ThomasSolveRow(row(b[6], 1), row(b[0], 1), row(b[2], 1), row(b[4], 1), row(b[5], 1), d, nx)
			for k := range a {
				if !slices.Equal(a[k], b[k]) {
					t.Fatalf("nx=%d run %v: field %d differs between the At and Row forms", nx, run, k)
				}
			}
		}
	}
}
