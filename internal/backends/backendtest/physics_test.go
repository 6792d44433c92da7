package backendtest

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/cuda"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/kokkosport"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/mpi"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/omp"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/opsport"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/rajaport"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/serial"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/kokkos"
	"github.com/warwick-hpsc/tealeaf-go/internal/ops"
	"github.com/warwick-hpsc/tealeaf-go/internal/raja"
	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
	"github.com/warwick-hpsc/tealeaf-go/internal/solver"
)

// TestConservationProperty (quick-check): for random material layouts,
// time steps and coefficients, the reflective-boundary conduction solve
// conserves the volume integral of u exactly (to solver tolerance), and
// mass never changes. This is the discrete analogue of the divergence
// theorem on the zero-flux domain and holds for any SPD solve that
// converges.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := config.BenchmarkN(12 + rng.Intn(16))
		cfg.EndStep = 1 + rng.Intn(4)
		cfg.InitialTimestep = 0.001 * math.Pow(10, rng.Float64()*2) // 0.001 .. 0.1
		cfg.SummaryFrequency = 1
		if rng.Intn(2) == 0 {
			cfg.Coefficient = config.RecipConductivity
		}
		// Random background plus 1-3 random rectangles/circles.
		cfg.States = []config.State{{
			Index:   1,
			Density: 0.5 + rng.Float64()*100,
			Energy:  0.001 + rng.Float64()*10,
		}}
		for s := 0; s < 1+rng.Intn(3); s++ {
			st := config.State{
				Index:   s + 2,
				Density: 0.1 + rng.Float64()*50,
				Energy:  0.01 + rng.Float64()*40,
			}
			if rng.Intn(2) == 0 {
				st.Geometry = config.GeomRectangle
				st.XMin = rng.Float64() * 8
				st.XMax = st.XMin + 0.5 + rng.Float64()*2
				st.YMin = rng.Float64() * 8
				st.YMax = st.YMin + 0.5 + rng.Float64()*2
			} else {
				st.Geometry = config.GeomCircular
				st.XMin = 1 + rng.Float64()*8
				st.YMin = 1 + rng.Float64()*8
				st.Radius = 0.5 + rng.Float64()*2
			}
			cfg.States = append(cfg.States, st)
		}
		k := serial.New()
		defer k.Close()
		res, err := driver.Run(cfg, k, solver.New(solver.FromConfig(&cfg)), nil)
		if err != nil {
			return false
		}
		var initial float64
		for i, s := range res.Steps {
			if s.Totals == nil {
				return false
			}
			if i == 0 {
				initial = s.Totals.Temperature
				// At step one, conservation ties temperature to the initial
				// internal energy too.
				if rel(initial, s.Totals.InternalEnergy) > 1e-12 && !s.Stats.Converged {
					return false
				}
			}
			if rel(s.Totals.Temperature, initial) > 1e-7 {
				return false
			}
			if rel(s.Totals.Mass, res.Steps[0].Totals.Mass) > 1e-13 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func rel(a, b float64) float64 {
	d := math.Abs(a - b)
	s := math.Max(math.Abs(a), math.Abs(b))
	if s == 0 {
		return 0
	}
	return d / s
}

// TestMaximumPrinciple: implicit diffusion cannot create new extrema —
// after any number of steps the temperature field stays within the initial
// [min, max] of u (up to solver tolerance).
func TestMaximumPrinciple(t *testing.T) {
	cfg := config.BenchmarkN(32)
	cfg.EndStep = 5
	k := serial.New()
	defer k.Close()
	if _, err := driver.Run(cfg, k, solver.New(solver.FromConfig(&cfg)), nil); err != nil {
		t.Fatal(err)
	}
	u := k.FetchField(driver.FieldU)
	// Initial u = density*energy: background 100*1e-4 = 0.01, hot strip
	// 0.1*25 = 2.5.
	lo, hi := 0.01, 2.5
	for i, v := range u {
		if v < lo-1e-9 || v > hi+1e-9 {
			t.Fatalf("cell %d: u = %g escapes the initial range [%g, %g]", i, v, lo, hi)
		}
	}
	// And diffusion must have moved something: some interior cell strictly
	// between the extremes.
	mixed := false
	for _, v := range u {
		if v > lo*1.5 && v < hi*0.9 {
			mixed = true
			break
		}
	}
	if !mixed {
		t.Error("no cell shows mixed temperature; did the solve do anything?")
	}
}

// TestSymmetryOfSolution: a symmetric initial condition must produce a
// symmetric solution (the operator and boundaries preserve the mesh's
// mirror symmetry).
func TestSymmetrySolution(t *testing.T) {
	cfg := config.BenchmarkN(24)
	cfg.EndStep = 3
	// A centred square: symmetric under x and y mirror.
	cfg.States = []config.State{
		{Index: 1, Density: 10, Energy: 0.01, Geometry: config.GeomRectangle},
		{Index: 2, Density: 0.5, Energy: 20, Geometry: config.GeomRectangle,
			XMin: 4, XMax: 6, YMin: 4, YMax: 6},
	}
	k := serial.New()
	defer k.Close()
	if _, err := driver.Run(cfg, k, solver.New(solver.FromConfig(&cfg)), nil); err != nil {
		t.Fatal(err)
	}
	u := k.FetchField(driver.FieldU)
	n := cfg.NX
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			mx := u[j*n+(n-1-i)] // x mirror
			my := u[(n-1-j)*n+i] // y mirror
			tr := u[i*n+j]       // transpose (square domain, square states)
			v := u[j*n+i]
			if rel(v, mx) > 1e-9 || rel(v, my) > 1e-9 || rel(v, tr) > 1e-9 {
				t.Fatalf("symmetry broken at (%d,%d): %g vs mirrors %g/%g/%g", i, j, v, mx, my, tr)
			}
		}
	}
}

// TestBitwiseDeterminism backs the README claim: for a fixed
// configuration (threads, ranks, block shape), every port's results are
// bit-reproducible across runs — reductions combine partials in fixed
// order on every runtime.
func TestBitwiseDeterminism(t *testing.T) {
	factories := map[string]Factory{
		"manual-omp":    func() driver.Kernels { return omp.New(4) },
		"manual-mpi":    func() driver.Kernels { return mpi.New(4, 2) },
		"manual-cuda":   func() driver.Kernels { return cuda.New(1, simgpu.Dim2{X: 32, Y: 4}) },
		"kokkos-cuda":   func() driver.Kernels { return kokkosport.New(kokkos.NewCuda(1, simgpu.Dim2{})) },
		"raja-openmp":   func() driver.Kernels { return rajaport.New(raja.NewOmp(3)) },
		"ops-mpi-tiled": opsTiledFactory(t),
	}
	cfg := config.BenchmarkN(20)
	cfg.EndStep = 2
	for name, factory := range factories {
		name, factory := name, factory
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			first := Run(t, factory, cfg)
			for run := 0; run < 3; run++ {
				again := Run(t, factory, cfg)
				if again.Final != first.Final {
					t.Fatalf("run %d differs bitwise:\n got %+v\nwant %+v", run, again.Final, first.Final)
				}
				if again.TotalIterations != first.TotalIterations {
					t.Fatalf("iteration counts differ: %d vs %d", again.TotalIterations, first.TotalIterations)
				}
			}
		})
	}
}

func opsTiledFactory(t *testing.T) Factory {
	return func() driver.Kernels {
		p, err := opsport.New(opsport.Options{Backend: ops.BackendSerial, Ranks: 4, Tiling: true, TileX: 8, TileY: 8})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
}
