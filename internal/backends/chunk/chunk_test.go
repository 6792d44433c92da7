package chunk_test

import (
	"fmt"
	"math"
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/backendtest"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/chunk"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/cuda"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/kokkosport"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/mpi"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/omp"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/openacc"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/rajaport"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/serial"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
	"github.com/warwick-hpsc/tealeaf-go/internal/kokkos"
	"github.com/warwick-hpsc/tealeaf-go/internal/raja"
	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
)

// The serial and omp ports are nothing but the recipe under the host policy
// without and with a thread team, so they stand for those two policies here.
func serialPolicy() driver.Kernels { return serial.New() }

func teamPolicy(threads int) backendtest.Factory {
	return func() driver.Kernels { return omp.New(threads) }
}

// solverDecks is tea_bm at n² under every solver and preconditioner the
// recipe has a body for.
func solverDecks(n int) map[string]config.Config {
	deck := func(mutate func(*config.Config)) config.Config {
		cfg := config.BenchmarkN(n)
		cfg.EndStep = 2
		mutate(&cfg)
		return cfg
	}
	return map[string]config.Config{
		"cg":           deck(func(*config.Config) {}),
		"cg_jac_diag":  deck(func(c *config.Config) { c.Preconditioner = config.PrecondJacDiag }),
		"cg_jac_block": deck(func(c *config.Config) { c.Preconditioner = config.PrecondJacBlock }),
		"chebyshev":    deck(func(c *config.Config) { c.Solver = config.SolverChebyshev }),
		"ppcg":         deck(func(c *config.Config) { c.Solver = config.SolverPPCG }),
		"jacobi": deck(func(c *config.Config) {
			c.Solver = config.SolverJacobi
			c.MaxIters = 20000
		}),
	}
}

// TestPolicyEquivalence is the executable statement of "the versions differ
// only in policy": at width one every policy hands the whole range to one
// share in row order, so the serial policy, a 1-thread team, a 1-rank MPI
// world, the OpenACC host target and the Kokkos and RAJA OpenMP layers at
// width one run the same bodies in the same order and must agree bit for
// bit. The 48×40 deck has a cell volume that is not a power of two, so the
// cell-by-cell Volume sum is checked for its order too.
func TestPolicyEquivalence(t *testing.T) {
	versions := map[string]backendtest.Factory{
		"team-1":          teamPolicy(1),
		"mpi-1x1":         func() driver.Kernels { return mpi.New(1, 1) },
		"openacc-host-1":  func() driver.Kernels { return openacc.New(openacc.TargetHost, 1) },
		"kokkos-openmp-1": func() driver.Kernels { return kokkosport.New(kokkos.NewOpenMP(1)) },
		"raja-openmp-1":   func() driver.Kernels { return rajaport.New(raja.NewOmp(1)) },
	}
	decks := solverDecks(32)
	decks["cg_48x40"] = backendtest.SegmentDecks()["cg"]
	for deck, cfg := range decks {
		want := backendtest.Run(t, serialPolicy, cfg)
		if want.TotalIterations == 0 {
			t.Fatalf("%s: reference took no iterations", deck)
		}
		for name, factory := range versions {
			got := backendtest.Run(t, factory, cfg)
			if got.Final != want.Final || got.TotalIterations != want.TotalIterations || got.TotalInner != want.TotalInner {
				t.Errorf("%s on %s: totals %+v after %d(+%d) iterations, serial policy %+v after %d(+%d)",
					deck, name, got.Final, got.TotalIterations, got.TotalInner,
					want.Final, want.TotalIterations, want.TotalInner)
			}
		}
	}
}

// TestTeamPolicyMatchesSerial runs every body on a multi-thread team (the
// race detector's view of the host policy): shares regroup the reductions,
// so agreement is to rounding, not bitwise.
func TestTeamPolicyMatchesSerial(t *testing.T) {
	for deck, cfg := range solverDecks(24) {
		want := backendtest.Run(t, serialPolicy, cfg)
		for _, threads := range []int{2, 5} {
			got := backendtest.Run(t, teamPolicy(threads), cfg)
			if d := driver.CompareTotals(want.Final, got.Final); d > 1e-10 {
				t.Errorf("%s on %d threads: totals diverge from the serial policy by %g", deck, threads, d)
			}
		}
	}
}

// The reflect tests' mesh: 5×3, so a mirror that swaps x and y, or rows and
// lines, shows.
const (
	halo           = grid.DefaultHalo
	reflectNX      = 5
	reflectNY      = 3
	reflectSentry  = -1.0
	reflectRows    = reflectNY + 2*halo
	reflectColumns = reflectNX + 2*halo
)

// reflectOracle is Reflect's definition, cell by cell, on a padded row-major
// grid g: each side's halo cells, the x sides first, take the cell mirrored
// across its boundary b, index 2b−1−i. The y sides span the x halos, so
// corners mirror the x-mirrored halo.
func reflectOracle(g [][]float64, depth int, s chunk.Sides) {
	x0, x1, y0, y1 := halo, halo+reflectNX, halo, halo+reflectNY
	for j := y0; j < y1; j++ {
		for k := 0; k < depth; k++ {
			if i := x0 - 1 - k; s&chunk.Left != 0 {
				g[j][i] = g[j][2*x0-1-i]
			}
			if i := x1 + k; s&chunk.Right != 0 {
				g[j][i] = g[j][2*x1-1-i]
			}
		}
	}
	for i := x0 - depth; i < x1+depth; i++ {
		for k := 0; k < depth; k++ {
			if j := y0 - 1 - k; s&chunk.Down != 0 {
				g[j][i] = g[2*y0-1-j][i]
			}
			if j := y1 + k; s&chunk.Up != 0 {
				g[j][i] = g[2*y1-1-j][i]
			}
		}
	}
}

// checkReflect generates c on the reflect mesh and, at depth 1 and 2 on
// every subset of sides, fills density with distinct interior values and a
// sentry in every halo cell, reflects it and compares every padded cell,
// (row, column) through cell, with the oracle: a side left out is a side
// with a neighbour, so its halo keeps the sentry.
func checkReflect[F any](t *testing.T, layout string, c *chunk.Chunk[F], cell func(f F, j, i int) *float64) {
	t.Helper()
	m, err := grid.NewMesh(0, reflectNX, 0, reflectNY, reflectNX, reflectNY)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Generate(m, config.BenchmarkN(4).States); err != nil {
		t.Fatal(err)
	}
	f := c.Field(driver.FieldDensity)
	want := make([][]float64, reflectRows)
	for depth := 1; depth <= halo; depth++ {
		for s := chunk.Sides(0); s <= chunk.AllSides; s++ {
			for j := range want {
				want[j] = make([]float64, reflectColumns)
				for i := range want[j] {
					want[j][i] = reflectSentry
					if j >= halo && j < halo+reflectNY && i >= halo && i < halo+reflectNX {
						want[j][i] = float64(100*j + i)
					}
					*cell(f, j, i) = want[j][i]
				}
			}
			c.Reflect(driver.FieldDensity, depth, s)
			reflectOracle(want, depth, s)
			for j := range want {
				for i, v := range want[j] {
					if got := *cell(f, j, i); got != v {
						t.Errorf("%s, depth %d, sides %04b: cell (%d, %d) = %g, want %g", layout, depth, s, j, i, got, v)
					}
				}
			}
		}
	}
}

// TestReflectHalo holds every halo cell of Reflect to the per-cell mirror on
// both orientations: the host policy's rows, manual-cuda's rows and
// kokkos-cuda's LayoutLeft columns, the device layers at a 2×2 block so that
// a line's halo or interior is split into several segments.
func TestReflectHalo(t *testing.T) {
	checkReflect(t, "host", chunk.New[*grid.Field](chunk.NewHost(nil), false), func(f *grid.Field, j, i int) *float64 {
		return &f.Data[j*f.Stride+i]
	})
	block := simgpu.Dim2{X: 2, Y: 2}
	dev := cuda.New(2, block)
	defer dev.Close()
	checkReflect(t, "manual-cuda", dev.Chunk, func(b *simgpu.Buffer, j, i int) *float64 {
		return &b.View()[j*reflectColumns+i]
	})
	space := kokkos.NewCuda(2, block)
	kk := kokkosport.New(space)
	defer kk.Close()
	if l := space.DefaultLayout(); l != kokkos.LayoutLeft {
		t.Fatalf("kokkos-cuda views are %v, want LayoutLeft", l)
	}
	checkReflect(t, "kokkos-cuda", kk.Chunk, func(v *kokkos.View, j, i int) *float64 {
		return &v.Data()[i*reflectRows+j]
	})
}

// counting is the serial host policy counting its Reduce launches.
type counting struct {
	*chunk.Host
	reduces int
}

func (p *counting) Reduce(name string, win chunk.Window, args []*grid.Field, body chunk.RedBody) float64 {
	p.reduces++
	return p.Host.Reduce(name, win, args, body)
}

// countedKernels is the recipe as a driver.Kernels, so driver.Call can drive
// it by kernel id.
type countedKernels struct{ *chunk.Chunk[*grid.Field] }

func (countedKernels) Name() string { return "counted" }
func (countedKernels) Close()       {}
func (k countedKernels) FetchField(id driver.FieldID) []float64 {
	return k.Interior(k.Field(id).Data)
}
func (k countedKernels) RestoreField(id driver.FieldID, data []float64) {
	k.SetInterior(k.Field(id).Data, data)
}

// everyCall applies every driver.Call, in kernel-table order, to the recipe
// on tea_bm n² under each preconditioner and both precond flags, on a fresh
// policy from newPol each time; visit applies each call to the kernels.
func everyCall[P chunk.Policy[*grid.Field]](t *testing.T, n int, newPol func() P, visit func(pol P, call *driver.Call, k driver.Kernels)) {
	t.Helper()
	cfg := config.BenchmarkN(n)
	m, err := grid.NewMesh(cfg.XMin, cfg.XMax, cfg.YMin, cfg.YMax, cfg.NX, cfg.NY)
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range []config.Preconditioner{config.PrecondNone, config.PrecondJacDiag, config.PrecondJacBlock} {
		for _, precond := range []bool{false, true} {
			pol := newPol()
			k := countedKernels{chunk.New[*grid.Field](pol, false)}
			for id := driver.KGenerate; id <= driver.KRestoreField; id++ {
				call := driver.Call{
					ID: id, Mesh: m, States: cfg.States,
					Fields: []driver.FieldID{driver.FieldU, driver.FieldP}, Depth: 2,
					Coef: cfg.Coefficient, Kind: pc, A: 0.5, B: 0.25, Precond: precond,
					Field: driver.FieldU, Data: make([]float64, cfg.NX*cfg.NY),
				}
				visit(pol, &call, k)
				if call.Err != nil {
					t.Fatal(call.Err)
				}
			}
		}
	}
}

// TestOneReducePerTotal holds the recipe to its reduction contract, on which
// the MPI and OPS rank policies' allreduce and the OpenACC region accounting
// rely: every kernel makes exactly one Reduce per total it returns and no
// other kernel reduces, under every preconditioner (jac_block's CGCalcUR
// included) and both precond flags.
func TestOneReducePerTotal(t *testing.T) {
	totals := map[driver.KernelID]int{
		driver.KFieldSummary: 4, driver.KNorm2R: 1, driver.KDotRZ: 1, driver.KCGInitP: 1,
		driver.KCGCalcW: 1, driver.KCGCalcUR: 1, driver.KJacobiIterate: 1,
	}
	newPol := func() *counting { return &counting{Host: chunk.NewHost(nil)} }
	everyCall(t, 16, newPol, func(pol *counting, call *driver.Call, k driver.Kernels) {
		pol.reduces = 0
		call.Apply(k)
		if pol.reduces != totals[call.ID] {
			t.Errorf("%v, precond %v: %s made %d reductions, want %d",
				call.Kind, call.Precond, call.ID.Desc().Name, pol.reduces, totals[call.ID])
		}
	})
}

// reachCheck is the serial host policy that first runs each launch's body one
// window point at a time, on scratch copies of its fields that hold the
// field's values inside that point's declared reach and NaN outside it, and
// fails the test if the body writes outside the reach or leaves a NaN (in a
// field or its sum): what the body read outside the reach. Then it runs the
// launch itself on the real fields.
type reachCheck struct {
	*chunk.Host
	t        *testing.T
	call     string
	launches int
}

func (p *reachCheck) For(name string, win chunk.Window, args []*grid.Field, body chunk.Body) {
	stride := args[0].Stride
	p.check(name, win, args, func(a [][]float64, j, i int) float64 {
		body(a, j*stride+i, j*stride+i+1)
		return 0
	})
	p.Host.For(name, win, args, body)
}

func (p *reachCheck) Reduce(name string, win chunk.Window, args []*grid.Field, body chunk.RedBody) float64 {
	stride := args[0].Stride
	p.check(name, win, args, func(a [][]float64, j, i int) float64 {
		return body(a, j*stride+i, j*stride+i+1, 0)
	})
	return p.Host.Reduce(name, win, args, body)
}

// check runs point at every cell of the window on the scratch copies,
// reporting the launch's first violation. A field passed twice is one
// scratch copy, as it is one field.
func (p *reachCheck) check(name string, win chunk.Window, args []*grid.Field, point func(a [][]float64, j, i int) float64) {
	p.launches++
	nan := math.NaN()
	stride, rows := args[0].Stride, len(args[0].Data)/args[0].Stride
	scratch := map[*grid.Field][]float64{}
	a := make([][]float64, len(args))
	for k, f := range args {
		if scratch[f] == nil {
			scratch[f] = make([]float64, len(f.Data))
			for c := range scratch[f] {
				scratch[f][c] = nan
			}
		}
		a[k] = scratch[f]
	}
	fail := func(format string, v ...any) {
		p.t.Errorf("%s, launch %s: %s", p.call, name, fmt.Sprintf(format, v...))
	}
	r := win.Reach
	for j := win.Y0; j < win.Y1; j++ {
		for i := win.X0; i < win.X1; i++ {
			y0, y1, x0, x1 := j+r.Y0, j+r.Y1, i+r.X0, i+r.X1
			if y0 < 0 || y1 >= rows || x0 < 0 || x1 >= stride {
				fail("reach %+v of point (%d, %d) leaves the field", r, j, i)
				return
			}
			for f, s := range scratch {
				for y := y0; y <= y1; y++ {
					copy(s[y*stride+x0:y*stride+x1+1], f.Data[y*stride+x0:])
				}
			}
			if v := point(a, j, i); math.IsNaN(v) {
				fail("point (%d, %d) sums a NaN: it reads outside its reach %+v", j, i, r)
				return
			}
			for _, s := range scratch {
				for c, v := range s {
					y, x := c/stride, c%stride
					inside := y >= y0 && y <= y1 && x >= x0 && x <= x1
					switch {
					case inside && math.IsNaN(v):
						fail("point (%d, %d) wrote a NaN to (%d, %d): it reads outside its reach %+v", j, i, y, x, r)
						return
					case !inside && !math.IsNaN(v):
						fail("point (%d, %d) wrote (%d, %d), outside its reach %+v", j, i, y, x, r)
						return
					}
					s[c] = nan
				}
			}
		}
	}
}

// TestDeclaredReach holds every launch's declared reach to what its body
// touches, for every driver.Call under every preconditioner and both precond
// flags: the OPS policy's stencils are those reaches, so one that understates
// a body would let a tiled chain or the bounds check miss a dependence.
func TestDeclaredReach(t *testing.T) {
	launches := 0
	newPol := func() *reachCheck { return &reachCheck{Host: chunk.NewHost(nil), t: t} }
	everyCall(t, 8, newPol, func(pol *reachCheck, call *driver.Call, k driver.Kernels) {
		pol.call = fmt.Sprintf("%v, precond %v: %s", call.Kind, call.Precond, call.ID.Desc().Name)
		n := pol.launches
		call.Apply(k)
		launches += pol.launches - n
	})
	if launches == 0 {
		t.Fatal("no launch was checked")
	}
}

// TestBlockFactorFollowsSolveInit holds jac_block's factors to the solve they
// were made for: after each of two SolveInits with a different coefficient
// and rx/ry, an ApplyPrecond on a fresh r must give the z of a fresh chunk
// that saw only that SolveInit, bit for bit, on the host policy, manual-cuda
// and kokkos-cuda's column layout. Every deck keeps kx and ky fixed across
// its steps, so no golden would see factors left over from another solve.
func TestBlockFactorFollowsSolveInit(t *testing.T) {
	block := simgpu.Dim2{X: 4, Y: 4}
	layouts := map[string]backendtest.Factory{
		"host":        serialPolicy,
		"manual-cuda": func() driver.Kernels { return cuda.New(2, block) },
		"kokkos-cuda": func() driver.Kernels { return kokkosport.New(kokkos.NewCuda(2, block)) },
	}
	cfg := config.BenchmarkN(13)
	m, err := grid.NewMesh(cfg.XMin, cfg.XMax, cfg.YMin, cfg.YMax, cfg.NX, 11)
	if err != nil {
		t.Fatal(err)
	}
	solves := []struct {
		coef   config.Coefficient
		rx, ry float64
	}{{config.Conductivity, 0.75, 1.5}, {config.RecipConductivity, 2.25, 0.375}}
	fresh := make([]float64, m.Nx*m.Ny)
	for i := range fresh {
		fresh[i] = math.Sin(float64(i)) + 0.25
	}
	start := func(k driver.Kernels) {
		if err := k.Generate(m, cfg.States); err != nil {
			t.Fatal(err)
		}
		k.HaloExchange([]driver.FieldID{driver.FieldDensity, driver.FieldEnergy0}, 2)
		k.SetField()
		k.HaloExchange([]driver.FieldID{driver.FieldDensity, driver.FieldEnergy1}, 2)
	}
	precond := func(k driver.Kernels) []float64 {
		k.RestoreField(driver.FieldR, fresh)
		k.ApplyPrecond()
		return k.FetchField(driver.FieldZ)
	}
	for name, factory := range layouts {
		k := factory()
		start(k)
		for n, s := range solves {
			k.SolveInit(s.coef, s.rx, s.ry, config.PrecondJacBlock)
			got := precond(k)
			ref := factory()
			start(ref)
			ref.SolveInit(s.coef, s.rx, s.ry, config.PrecondJacBlock)
			want := precond(ref)
			ref.Close()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Errorf("%s, solve %d: z[%d] = %x after an earlier solve, %x on a fresh chunk", name, n, i, got[i], want[i])
					break
				}
			}
		}
		k.Close()
	}
}
