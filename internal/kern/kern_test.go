package kern

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Every exported row body is held, with == and not a tolerance, to a rolled
// loop that indexes full halo'd rows cell by cell with bounds checks on: the
// form the ports carried before the bodies moved here. Equal bits mean the
// unrolled, bounds-hoisted bodies kept both the arithmetic and the
// left-to-right summation order.

const d = 2 // halo depth of every row under test

// widths sweeps nx over 0..9 and a 4k+{0,1,2,3} tail at a realistic width.
var widths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 65, 66, 67}

// rows returns n full halo'd rows of interior width nx with values in
// (0.1, 1.1): positive, so they serve as densities and coefficients too.
func rows(rng *rand.Rand, nx, n int) [][]float64 {
	out := make([][]float64, n)
	for k := range out {
		out[k] = make([]float64, nx+2*d)
		for i := range out[k] {
			out[k][i] = 0.1 + rng.Float64()
		}
	}
	return out
}

func clone(rs [][]float64) [][]float64 {
	out := make([][]float64, len(rs))
	for k := range rs {
		out[k] = slices.Clone(rs[k])
	}
	return out
}

// in is the interior of a full row.
func in(row []float64, nx int) []float64 { return row[d : d+nx] }

// sweep runs check for every width with fresh random rows: a is handed to
// the body under test, b (identical contents) to the reference, and the two
// sets must end identical, halos included.
func sweep(t *testing.T, nrows int, check func(nx int, a, b [][]float64)) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	for _, nx := range widths {
		a := rows(rng, nx, nrows)
		b := clone(a)
		check(nx, a, b)
		for k := range a {
			if !slices.Equal(a[k], b[k]) {
				t.Errorf("nx=%d: row %d differs from the rolled reference\n got %v\nwant %v", nx, k, a[k], b[k])
			}
		}
	}
}

func expectAcc(t *testing.T, nx int, got, want float64) {
	t.Helper()
	if got != want {
		t.Errorf("nx=%d: accumulator %x, rolled reference %x", nx, got, want)
	}
}

func diagAt(kx, ky, kyu []float64, ii int) float64 {
	return 1 + kx[ii+1] + kx[ii] + kyu[ii] + ky[ii]
}

func TestOperatorRow(t *testing.T) {
	sweep(t, 7, func(nx int, a, b [][]float64) {
		OperatorRow(a[0], a[1], a[2], a[3], a[4], a[5], a[6], d, nx)
		dst, sr, su, sd, kx, ky, kyu := b[0], b[1], b[2], b[3], b[4], b[5], b[6]
		for i := 0; i < nx; i++ {
			ii := d + i
			dst[ii] = diagAt(kx, ky, kyu, ii)*sr[ii] -
				(kx[ii+1]*sr[ii+1] + kx[ii]*sr[ii-1]) - (kyu[ii]*su[ii] + ky[ii]*sd[ii])
		}
	})
}

func TestDotAcc(t *testing.T) {
	sweep(t, 2, func(nx int, a, b [][]float64) {
		got := DotAcc(0.375, in(a[0], nx), in(a[1], nx))
		want := 0.375
		for i := 0; i < nx; i++ {
			want += b[0][d+i] * b[1][d+i]
		}
		expectAcc(t, nx, got, want)
	})
}

func TestUpdateUR(t *testing.T) {
	const alpha = 0.3125
	sweep(t, 4, func(nx int, a, b [][]float64) {
		UpdateUR(in(a[0], nx), in(a[1], nx), in(a[2], nx), in(a[3], nx), alpha)
		for i := d; i < d+nx; i++ {
			b[0][i] += alpha * b[1][i]
			b[2][i] -= alpha * b[3][i]
		}
	})
}

func TestJacobiRow(t *testing.T) {
	sweep(t, 8, func(nx int, a, b [][]float64) {
		got := JacobiRow(0.375, a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7], d, nx)
		u, un, unu, und, u0, kx, ky, kyu := b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]
		want := 0.375
		for i := 0; i < nx; i++ {
			ii := d + i
			num := u0[ii] + kx[ii+1]*un[ii+1] + kx[ii]*un[ii-1] + kyu[ii]*unu[ii] + ky[ii]*und[ii]
			u[ii] = num / diagAt(kx, ky, kyu, ii)
			want += math.Abs(u[ii] - un[ii])
		}
		expectAcc(t, nx, got, want)
	})
}

func TestPointwiseRows(t *testing.T) {
	const alpha, beta, theta = 0.3125, 0.8125, 1.75
	cases := []struct {
		name string
		body func(nx int, r [][]float64)
		cell func(r [][]float64, i int)
	}{
		{"Sub", func(nx int, r [][]float64) { Sub(in(r[0], nx), in(r[1], nx), in(r[2], nx)) },
			func(r [][]float64, i int) { r[0][i] = r[1][i] - r[2][i] }},
		{"Sub aliased", func(nx int, r [][]float64) { Sub(in(r[0], nx), in(r[0], nx), in(r[1], nx)) },
			func(r [][]float64, i int) { r[0][i] -= r[1][i] }},
		{"Add", func(nx int, r [][]float64) { Add(in(r[0], nx), in(r[1], nx)) },
			func(r [][]float64, i int) { r[0][i] += r[1][i] }},
		{"Mul", func(nx int, r [][]float64) { Mul(in(r[0], nx), in(r[1], nx), in(r[2], nx)) },
			func(r [][]float64, i int) { r[0][i] = r[1][i] * r[2][i] }},
		{"Div", func(nx int, r [][]float64) { Div(in(r[0], nx), in(r[1], nx), in(r[2], nx)) },
			func(r [][]float64, i int) { r[0][i] = r[1][i] / r[2][i] }},
		{"XPBY", func(nx int, r [][]float64) { XPBY(in(r[0], nx), in(r[1], nx), beta) },
			func(r [][]float64, i int) { r[0][i] = r[1][i] + beta*r[0][i] }},
		{"ChebyInitRow", func(nx int, r [][]float64) { ChebyInitRow(in(r[0], nx), in(r[1], nx), in(r[2], nx), theta) },
			func(r [][]float64, i int) { r[0][i] = r[2][i] / theta; r[1][i] += r[0][i] }},
		{"ChebyRow", func(nx int, r [][]float64) { ChebyRow(in(r[0], nx), in(r[1], nx), in(r[2], nx), alpha, beta) },
			func(r [][]float64, i int) { r[0][i] = alpha*r[0][i] + beta*r[2][i]; r[1][i] += r[0][i] }},
		{"PPCGInitRow", func(nx int, r [][]float64) {
			PPCGInitRow(in(r[0], nx), in(r[1], nx), in(r[2], nx), in(r[3], nx), theta)
		}, func(r [][]float64, i int) { r[0][i] = r[3][i]; r[1][i] = 0; r[2][i] = r[3][i] / theta }},
		{"PPCGInnerRow", func(nx int, r [][]float64) {
			PPCGInnerRow(in(r[0], nx), in(r[1], nx), in(r[2], nx), in(r[3], nx), alpha, beta)
		}, func(r [][]float64, i int) {
			r[0][i] += r[1][i]
			r[2][i] -= r[3][i]
			r[1][i] = alpha*r[1][i] + beta*r[2][i]
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sweep(t, 4, func(nx int, a, b [][]float64) {
				c.body(nx, a)
				for i := d; i < d+nx; i++ {
					c.cell(b, i)
				}
			})
		})
	}
}

func TestCopyDot(t *testing.T) {
	sweep(t, 3, func(nx int, a, b [][]float64) {
		got := CopyDot(0.375, in(a[0], nx), in(a[1], nx), in(a[2], nx))
		want := 0.375
		for i := d; i < d+nx; i++ {
			b[0][i] = b[1][i]
			want += b[2][i] * b[1][i]
		}
		expectAcc(t, nx, got, want)
	})
}

func TestInitRow(t *testing.T) {
	for _, recip := range []bool{false, true} {
		sweep(t, 5, func(nx int, a, b [][]float64) {
			InitRow(a[0], a[1], a[2], a[3], a[4], recip)
			u, u0, w, energy, density := b[0], b[1], b[2], b[3], b[4]
			for i := range u { // the whole halo'd row, not just the interior
				u[i] = energy[i] * density[i]
				u0[i] = u[i]
				w[i] = density[i]
				if recip {
					w[i] = 1 / density[i]
				}
			}
		})
	}
}

func TestFaceCoefRow(t *testing.T) {
	const rx, ry = 0.6875, 1.4375
	sweep(t, 4, func(nx int, a, b [][]float64) {
		FaceCoefRow(a[0], a[1], a[2], a[3], rx, ry, d, nx)
		kx, ky, w, wd := b[0], b[1], b[2], b[3]
		for i := -1; i < nx+1; i++ {
			kx[d+i] = rx * (w[d+i-1] + w[d+i]) / (2 * w[d+i-1] * w[d+i])
			ky[d+i] = ry * (wd[d+i] + w[d+i]) / (2 * wd[d+i] * w[d+i])
		}
	})
}

func TestDiagInvRow(t *testing.T) {
	sweep(t, 4, func(nx int, a, b [][]float64) {
		DiagInvRow(a[0], a[1], a[2], a[3], d, nx)
		for i := 0; i < nx; i++ {
			b[0][d+i] = 1 / diagAt(b[1], b[2], b[3], d+i)
		}
	})
}

// TestThomasRow holds the factoring Thomas solve to the rolled forward sweep
// and back substitution, the reciprocal pivots kept in m (the first cell's
// diagonal itself in m[0]), and the solve to being one.
func TestThomasRow(t *testing.T) {
	sweep(t, 7, func(nx int, a, b [][]float64) {
		ThomasFactorRow(a[0], a[1], a[2], a[3], a[4], a[5], a[6], d, nx)
		if nx == 0 {
			return
		}
		z, r, kx, ky, kyu, cp, m := b[0], b[1], b[2], b[3], b[4], b[5], b[6]
		dp := make([]float64, len(z))
		b0 := diagAt(kx, ky, kyu, d)
		m[d] = b0
		cp[d] = -kx[d+1] / b0
		dp[d] = r[d] / b0
		for i := 1; i < nx; i++ {
			sub := -kx[d+i]
			m[d+i] = 1 / (diagAt(kx, ky, kyu, d+i) - sub*cp[d+i-1])
			cp[d+i] = -kx[d+i+1] * m[d+i]
			dp[d+i] = (r[d+i] - sub*dp[d+i-1]) * m[d+i]
		}
		z[d+nx-1] = dp[d+nx-1]
		for i := nx - 2; i >= 0; i-- {
			z[d+i] = dp[d+i] - cp[d+i]*z[d+i+1]
		}
		// And the solve is a solve: T z reproduces r on this random SPD row
		// (sub/super-diagonal -kx, the operator's full diagonal).
		for i := 0; i < nx; i++ {
			tz := diagAt(kx, ky, kyu, d+i) * z[d+i]
			if i > 0 {
				tz -= kx[d+i] * z[d+i-1]
			}
			if i < nx-1 {
				tz -= kx[d+i+1] * z[d+i+1]
			}
			if math.Abs(tz-r[d+i]) > 1e-13 {
				t.Errorf("nx=%d: (T z)[%d] = %g, r = %g", nx, i, tz, r[d+i])
			}
		}
	})
}

func TestSummaryRows(t *testing.T) {
	const cellVol = 0.0390625
	sweep(t, 3, func(nx int, a, b [][]float64) {
		vol, mass := VolMass(0.375, 1.625, in(a[0], nx), cellVol)
		ie, temp := EnergyTemp(2.375, 3.125, in(a[0], nx), in(a[1], nx), in(a[2], nx), cellVol)
		wantVol, wantMass, wantIE, wantTemp := 0.375, 1.625, 2.375, 3.125
		for i := d; i < d+nx; i++ {
			wantVol += cellVol
			wantMass += b[0][i] * cellVol
			wantIE += b[0][i] * b[1][i] * cellVol
			wantTemp += b[2][i] * cellVol
		}
		expectAcc(t, nx, vol, wantVol)
		expectAcc(t, nx, mass, wantMass)
		expectAcc(t, nx, ie, wantIE)
		expectAcc(t, nx, temp, wantTemp)
	})
}
