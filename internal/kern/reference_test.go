package kern

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The bodies with SSE2 paths are held to their Go references: each exported
// body (the assembly prefix and the Go tail on amd64) and the reference run
// from cell 0 get copies of the same operand rows, and every cell they write
// and every accumulator they return must carry the same bits. Where the
// reference gives a NaN the body must give a NaN, of any payload: which NaN an
// SSE instruction returns depends on its operand order. On race builds and on
// other architectures the exported body is the reference, so these tests pass
// trivially there.

// simdCase is one asm-backed body: run calls the exported body, ref its Go
// reference from cell 0, on full halo'd rows of interior width nx; s is the
// scalar (alpha, beta), and the starting accumulator of the reducing bodies,
// which return their new accumulator (the others return 0).
type simdCase struct {
	name     string
	nrows    int
	run, ref func(rs [][]float64, nx int, s float64) float64
}

var simdCases = []simdCase{
	{"OperatorRow", 7,
		func(r [][]float64, nx int, _ float64) float64 {
			OperatorRow(r[0], r[1], r[2], r[3], r[4], r[5], r[6], d, nx)
			return 0
		},
		func(r [][]float64, nx int, _ float64) float64 {
			operatorGo(0, r[0], r[1], r[2], r[3], r[4], r[5], r[6], d, nx)
			return 0
		}},
	{"OperatorDotRow", 7,
		func(r [][]float64, nx int, s float64) float64 {
			return OperatorDotRow(s, r[0], r[1], r[2], r[3], r[4], r[5], r[6], d, nx)
		},
		func(r [][]float64, nx int, s float64) float64 {
			return operatorDotGo(0, s, r[0], r[1], r[2], r[3], r[4], r[5], r[6], d, nx)
		}},
	{"OperatorSubRow", 9,
		func(r [][]float64, nx int, _ float64) float64 {
			OperatorSubRow(r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7], r[8], d, nx)
			return 0
		},
		func(r [][]float64, nx int, _ float64) float64 {
			operatorSubGo(0, r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7], r[8], d, nx)
			return 0
		}},
	{"OperatorSubRow aliased", 8,
		func(r [][]float64, nx int, _ float64) float64 {
			OperatorSubRow(r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7], r[7], d, nx)
			return 0
		},
		func(r [][]float64, nx int, _ float64) float64 {
			operatorSubGo(0, r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7], r[7], d, nx)
			return 0
		}},
	{"UpdateUR", 4,
		func(r [][]float64, nx int, s float64) float64 {
			UpdateUR(in(r[0], nx), in(r[1], nx), in(r[2], nx), in(r[3], nx), s)
			return 0
		},
		func(r [][]float64, nx int, s float64) float64 {
			updateURGo(0, in(r[0], nx), in(r[1], nx), in(r[2], nx), in(r[3], nx), s)
			return 0
		}},
	{"UpdateURDot", 4,
		func(r [][]float64, nx int, s float64) float64 {
			return UpdateURDot(s, in(r[0], nx), in(r[1], nx), in(r[2], nx), in(r[3], nx), s)
		},
		func(r [][]float64, nx int, s float64) float64 {
			return updateURDotGo(0, s, in(r[0], nx), in(r[1], nx), in(r[2], nx), in(r[3], nx), s)
		}},
	{"UpdateURZDot", 6,
		func(r [][]float64, nx int, s float64) float64 {
			return UpdateURZDot(s, in(r[0], nx), in(r[1], nx), in(r[2], nx), in(r[3], nx), in(r[4], nx), in(r[5], nx), s)
		},
		func(r [][]float64, nx int, s float64) float64 {
			return updateURZDotGo(0, s, in(r[0], nx), in(r[1], nx), in(r[2], nx), in(r[3], nx), in(r[4], nx), in(r[5], nx), s)
		}},
	{"XPBY", 2,
		func(r [][]float64, nx int, s float64) float64 {
			XPBY(in(r[0], nx), in(r[1], nx), s)
			return 0
		},
		func(r [][]float64, nx int, s float64) float64 {
			xpbyGo(0, in(r[0], nx), in(r[1], nx), s)
			return 0
		}},
	{"ChebyRow", 3,
		func(r [][]float64, nx int, s float64) float64 {
			ChebyRow(in(r[0], nx), in(r[1], nx), in(r[2], nx), s, 1-s)
			return 0
		},
		func(r [][]float64, nx int, s float64) float64 {
			chebyGo(0, in(r[0], nx), in(r[1], nx), in(r[2], nx), s, 1-s)
			return 0
		}},
	{"PPCGInnerRow", 4,
		func(r [][]float64, nx int, s float64) float64 {
			PPCGInnerRow(in(r[0], nx), in(r[1], nx), in(r[2], nx), in(r[3], nx), s, 1-s)
			return 0
		},
		func(r [][]float64, nx int, s float64) float64 {
			ppcgInnerGo(0, in(r[0], nx), in(r[1], nx), in(r[2], nx), in(r[3], nx), s, 1-s)
			return 0
		}},
}

// sameBits reports whether got matches the reference value want: the same
// bits, or any NaN where want is a NaN.
func sameBits(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// checkSIMD runs c on nrows full halo'd rows of interior width nx filled by
// next, each row starting off cells into its backing array (off 0 and 1 put
// the interior on 16- and 8-byte boundaries), and compares the body with its
// reference.
func checkSIMD(t *testing.T, c simdCase, nx, off int, s float64, next func() float64) {
	t.Helper()
	a := make([][]float64, c.nrows)
	b := make([][]float64, c.nrows)
	for k := range a {
		a[k] = make([]float64, off+nx+2*d)[off:]
		b[k] = make([]float64, off+nx+2*d)[off:]
		for i := range a[k] {
			a[k][i] = next()
			b[k][i] = a[k][i]
		}
	}
	got, want := c.run(a, nx, s), c.ref(b, nx, s)
	if !sameBits(got, want) {
		t.Fatalf("%s nx=%d off=%d: accumulator %x, reference %x", c.name, nx, off, got, want)
	}
	for k := range a {
		for i := range a[k] {
			if !sameBits(a[k][i], b[k][i]) {
				t.Fatalf("%s nx=%d off=%d: row %d cell %d is %x, reference %x", c.name, nx, off, k, i, a[k][i], b[k][i])
			}
		}
	}
}

// specials are the values a drawn cell is sometimes replaced with.
var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), math.MaxFloat64, -math.MaxFloat64, math.NaN(),
}

// drawer returns a value source for one of three regimes: finite values of
// either sign near one (so long accumulations stay finite and the sums are
// compared, not just their NaN-ness); those with a special value in one cell
// of eight; and uniformly random bits, so every exponent, subnormals and
// overflow to ±Inf included.
func drawer(rng *rand.Rand, regime int) func() float64 {
	tame := func() float64 {
		v := math.Ldexp(1+rng.Float64(), rng.Intn(9)-4)
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	}
	switch regime {
	case 0:
		return tame
	case 1:
		return func() float64 {
			if rng.Intn(8) == 0 {
				if rng.Intn(2) == 0 {
					return math.Float64frombits(rng.Uint64() & 0x800fffffffffffff) // a subnormal or ±0
				}
				return specials[rng.Intn(len(specials))]
			}
			return tame()
		}
	default:
		return func() float64 { return math.Float64frombits(rng.Uint64()) }
	}
}

func TestSIMDMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range simdCases {
		for nx := 0; nx <= 67; nx++ {
			for off := 0; off < 2; off++ {
				for regime := 0; regime < 3; regime++ {
					for rep := 0; rep < 2; rep++ {
						next := drawer(rng, regime)
						checkSIMD(t, c, nx, off, next(), next)
					}
				}
			}
		}
	}
}

// FuzzRowBodies holds every asm-backed body to its Go reference on rows
// whose cells are read, eight little-endian bytes each, from bits (cycled;
// all zero when bits is empty).
func FuzzRowBodies(f *testing.F) {
	seed := make([]byte, 0, 8*len(specials))
	for _, v := range specials {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed, uint8(5), false, 0.5)
	f.Add(seed[:24], uint8(66), true, -1.5)
	f.Fuzz(func(t *testing.T, bits []byte, nx uint8, off bool, s float64) {
		pos := 0
		next := func() float64 {
			if len(bits) < 8 {
				return 0
			}
			if pos+8 > len(bits) {
				pos = 0
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(bits[pos:]))
			pos += 8
			return v
		}
		o := 0
		if off {
			o = 1
		}
		for _, c := range simdCases {
			pos = 0
			checkSIMD(t, c, int(nx), o, s, next)
		}
		pos = 0
		checkThomas(t, int(nx), o, next)
	})
}

// thomasRow is the single-pass line solve the factored pair replaced: the
// forward sweep divides on every cell, keeping dp in its own scratch row.
func thomasRow(z, r, kx, ky, kyu, cp, dp []float64, d, nx int) {
	if nx <= 0 {
		return
	}
	z, r, cp, dp = z[d:d+nx], r[d:d+nx], cp[d:d+nx], dp[d:d+nx]
	kx0, kx1, ky0, ky1 := kx[d:d+nx], kx[d+1:d+1+nx], ky[d:d+nx], kyu[d:d+nx]
	b0 := 1 + kx1[0] + kx0[0] + ky1[0] + ky0[0]
	cp[0] = -kx1[0] / b0
	dp[0] = r[0] / b0
	for i := 1; i < nx; i++ {
		a := -kx0[i]
		m := 1 / (1 + kx1[i] + kx0[i] + ky1[i] + ky0[i] - a*cp[i-1])
		cp[i] = -kx1[i] * m
		dp[i] = (r[i] - a*dp[i-1]) * m
	}
	z[nx-1] = dp[nx-1]
	for i := nx - 2; i >= 0; i-- {
		z[i] = dp[i] - cp[i]*z[i+1]
	}
}

// checkThomas factors a row of interior width nx filled by next and solves
// it for a second, fresh right-hand side on those factors, each row starting
// off cells into its backing array; both solutions, and the factoring's cp,
// must carry the bits of the single-pass solve of the same right-hand side.
func checkThomas(t *testing.T, nx, off int, next func() float64) {
	t.Helper()
	row := func() []float64 { return make([]float64, off+nx+2*d)[off:] }
	kx, ky, kyu, r1, r2 := row(), row(), row(), row(), row()
	for _, f := range [][]float64{kx, ky, kyu, r1, r2} {
		for i := range f {
			f[i] = next()
		}
	}
	z1, z2, cp, m := row(), row(), row(), row()
	ThomasFactorRow(z1, r1, kx, ky, kyu, cp, m, d, nx)
	ThomasSolveRow(z2, r2, kx, cp, m, d, nx)
	for k, c := range []struct {
		r, z, cp []float64
	}{{r1, z1, cp}, {r2, z2, nil}} {
		want, wantCP, dp := row(), row(), row()
		thomasRow(want, c.r, kx, ky, kyu, wantCP, dp, d, nx)
		for i := range want {
			if !sameBits(c.z[i], want[i]) {
				t.Fatalf("nx=%d off=%d: solve %d cell %d is %x, single pass %x", nx, off, k, i, c.z[i], want[i])
			}
			if c.cp != nil && !sameBits(c.cp[i], wantCP[i]) {
				t.Fatalf("nx=%d off=%d: cp cell %d is %x, single pass %x", nx, off, i, c.cp[i], wantCP[i])
			}
		}
	}
}

// TestThomasFactorSolveMatchesRow holds the factored line solve to the
// single-pass one: a factoring solve, and a replay of its factors on a fresh
// right-hand side, each bitwise the single-pass solve, at every width 0–67,
// both offsets and every regime of drawn values (±0, subnormals, ±Inf,
// ±MaxFloat64 and random bits among them).
func TestThomasFactorSolveMatchesRow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for nx := 0; nx <= 67; nx++ {
		for off := 0; off < 2; off++ {
			for regime := 0; regime < 3; regime++ {
				for rep := 0; rep < 2; rep++ {
					checkThomas(t, nx, off, drawer(rng, regime))
				}
			}
		}
	}
}

// Sub sets dst = a - b over one interior row: the pass OperatorSubRow fuses
// into the operator's sweep, the residual r = u0 - w and, with dst aliasing
// a, the Chebyshev residual update r -= w.
func Sub(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// The fused bodies are the two-pass sequences the chunk recipe ran before
// them, bit for bit: the operator then DotAcc or Sub (into another row, or
// into its minuend as the Chebyshev r -= w does), and the u/r update then
// (with the diagonal preconditioner) Mul then DotAcc.
func TestFusedBodiesMatchTwoPass(t *testing.T) {
	const alpha = 0.3125
	sweep(t, 9, func(nx int, a, b [][]float64) {
		OperatorSubRow(a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7], a[8], d, nx)
		OperatorRow(b[0], b[1], b[2], b[3], b[4], b[5], b[6], d, nx)
		Sub(in(b[8], nx), in(b[7], nx), in(b[0], nx))
	})
	sweep(t, 8, func(nx int, a, b [][]float64) {
		OperatorSubRow(a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7], a[7], d, nx)
		OperatorRow(b[0], b[1], b[2], b[3], b[4], b[5], b[6], d, nx)
		Sub(in(b[7], nx), in(b[7], nx), in(b[0], nx))
	})
	sweep(t, 7, func(nx int, a, b [][]float64) {
		got := OperatorDotRow(0.375, a[0], a[1], a[2], a[3], a[4], a[5], a[6], d, nx)
		OperatorRow(b[0], b[1], b[2], b[3], b[4], b[5], b[6], d, nx)
		expectAcc(t, nx, got, DotAcc(0.375, in(b[1], nx), in(b[0], nx)))
	})
	sweep(t, 4, func(nx int, a, b [][]float64) {
		got := UpdateURDot(0.375, in(a[0], nx), in(a[1], nx), in(a[2], nx), in(a[3], nx), alpha)
		UpdateUR(in(b[0], nx), in(b[1], nx), in(b[2], nx), in(b[3], nx), alpha)
		expectAcc(t, nx, got, DotAcc(0.375, in(b[2], nx), in(b[2], nx)))
	})
	sweep(t, 6, func(nx int, a, b [][]float64) {
		got := UpdateURZDot(0.375, in(a[0], nx), in(a[1], nx), in(a[2], nx), in(a[3], nx), in(a[4], nx), in(a[5], nx), alpha)
		UpdateUR(in(b[0], nx), in(b[1], nx), in(b[2], nx), in(b[3], nx), alpha)
		Mul(in(b[5], nx), in(b[4], nx), in(b[2], nx))
		expectAcc(t, nx, got, DotAcc(0.375, in(b[2], nx), in(b[5], nx)))
	})
}
