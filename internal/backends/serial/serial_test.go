package serial

import (
	"math"
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
	"github.com/warwick-hpsc/tealeaf-go/internal/solver"
)

func runBM(t *testing.T, n int, mutate func(*config.Config)) driver.Result {
	t.Helper()
	cfg := config.BenchmarkN(n)
	if mutate != nil {
		mutate(&cfg)
	}
	k := New()
	defer k.Close()
	res, err := driver.Run(cfg, k, solver.New(solver.FromConfig(&cfg)), nil)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return res
}

func TestCGConverges(t *testing.T) {
	res := runBM(t, 16, nil)
	if len(res.Steps) != 10 {
		t.Fatalf("expected 10 steps, got %d", len(res.Steps))
	}
	for _, s := range res.Steps {
		if !s.Stats.Converged {
			t.Errorf("step %d did not converge (error %g)", s.Step, s.Stats.Error)
		}
		if s.Stats.Iterations <= 0 {
			t.Errorf("step %d took no iterations", s.Step)
		}
	}
}

func TestEnergyConservation(t *testing.T) {
	// With reflective (zero-flux) boundaries the conduction operator
	// conserves the volume integral of u; the summary's Temperature total
	// must therefore equal the initial internal energy for every step.
	cfg := config.BenchmarkN(24)
	cfg.SummaryFrequency = 1
	k := New()
	defer k.Close()
	res, err := driver.Run(cfg, k, solver.New(solver.FromConfig(&cfg)), nil)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	// Initial internal energy from the deck: state 1 fills the domain, state
	// 2 overwrites its rectangle.
	m, _ := grid.NewMesh(cfg.XMin, cfg.XMax, cfg.YMin, cfg.YMax, cfg.NX, cfg.NY)
	vol := m.CellVolume()
	var ie0 float64
	for j := 0; j < cfg.NY; j++ {
		for i := 0; i < cfg.NX; i++ {
			st := cfg.States[0]
			if m.VertexX(i) >= cfg.States[1].XMin-1e-12 && m.VertexX(i+1) <= cfg.States[1].XMax+1e-12 &&
				m.VertexY(j) >= cfg.States[1].YMin-1e-12 && m.VertexY(j+1) <= cfg.States[1].YMax+1e-12 {
				st = cfg.States[1]
			}
			ie0 += st.Density * st.Energy * vol
		}
	}
	for _, s := range res.Steps {
		if s.Totals == nil {
			t.Fatalf("step %d missing summary", s.Step)
		}
		rel := math.Abs(s.Totals.Temperature-ie0) / ie0
		if rel > 1e-8 {
			t.Errorf("step %d: temperature total %g deviates from conserved %g (rel %g)",
				s.Step, s.Totals.Temperature, ie0, rel)
		}
		// Mass and volume never change.
		if math.Abs(s.Totals.Volume-100) > 1e-9 {
			t.Errorf("step %d: volume %g != 100", s.Step, s.Totals.Volume)
		}
	}
}

func TestResidualAfterSolve(t *testing.T) {
	cfg := config.BenchmarkN(16)
	cfg.EndStep = 1
	k := New()
	defer k.Close()
	m, _ := grid.NewMesh(cfg.XMin, cfg.XMax, cfg.YMin, cfg.YMax, cfg.NX, cfg.NY)
	if err := k.Generate(m, cfg.States); err != nil {
		t.Fatal(err)
	}
	k.HaloExchange([]driver.FieldID{driver.FieldDensity, driver.FieldEnergy0}, 2)
	k.SetField()
	k.HaloExchange([]driver.FieldID{driver.FieldDensity, driver.FieldEnergy1}, 2)
	dt := cfg.InitialTimestep
	rx := dt / (m.Dx * m.Dx)
	ry := dt / (m.Dy * m.Dy)
	k.SolveInit(cfg.Coefficient, rx, ry, config.PrecondNone)
	initial := k.Norm2R()
	st, err := solver.Solve(k, solver.FromConfig(&cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("CG did not converge: %+v", st)
	}
	// Recompute the true residual from scratch and compare against the
	// recurrence's view of it.
	k.HaloExchange([]driver.FieldID{driver.FieldU}, 1)
	k.CalcResidual()
	true2 := k.Norm2R()
	if true2 > 10*cfg.Eps*initial {
		t.Errorf("true residual %g not reduced below %g (initial %g)", true2, 10*cfg.Eps*initial, initial)
	}
}

func TestSolversAgree(t *testing.T) {
	// All four solvers must land on the same temperature field.
	base := runBM(t, 16, func(c *config.Config) {
		c.EndStep = 3
		c.Eps = 1e-14
	})
	for _, kind := range []config.SolverKind{config.SolverJacobi, config.SolverChebyshev, config.SolverPPCG} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			res := runBM(t, 16, func(c *config.Config) {
				c.EndStep = 3
				c.Solver = kind
				switch kind {
				case config.SolverJacobi:
					c.Eps = 1e-12 // Jacobi converges on the absolute update norm
					c.MaxIters = 100000
				default:
					c.Eps = 1e-14
					c.MaxIters = 5000
				}
			})
			rel := math.Abs(res.Final.Temperature-base.Final.Temperature) /
				math.Abs(base.Final.Temperature)
			if rel > 1e-6 {
				t.Errorf("%s temperature %.12g differs from CG %.12g (rel %g)",
					kind, res.Final.Temperature, base.Final.Temperature, rel)
			}
		})
	}
}

func TestPreconditionedCGMatches(t *testing.T) {
	base := runBM(t, 20, func(c *config.Config) { c.EndStep = 2 })
	for _, kind := range []config.Preconditioner{config.PrecondJacDiag, config.PrecondJacBlock} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			pre := runBM(t, 20, func(c *config.Config) {
				c.EndStep = 2
				c.Preconditioner = kind
			})
			rel := math.Abs(pre.Final.Temperature-base.Final.Temperature) /
				math.Abs(base.Final.Temperature)
			if rel > 1e-8 {
				t.Errorf("%s CG temperature %.12g differs from plain %.12g (rel %g)",
					kind, pre.Final.Temperature, base.Final.Temperature, rel)
			}
			if pre.TotalIterations > base.TotalIterations {
				t.Logf("note: %s CG took %d iters vs plain %d", kind, pre.TotalIterations, base.TotalIterations)
			}
		})
	}
}

// TestBlockPrecondReducesIterations: the line solve must beat plain CG on
// iteration count for this anisotropy-free problem at least marginally,
// and must never diverge.
func TestBlockPrecondReducesIterations(t *testing.T) {
	plain := runBM(t, 48, func(c *config.Config) { c.EndStep = 1 })
	block := runBM(t, 48, func(c *config.Config) {
		c.EndStep = 1
		c.Preconditioner = config.PrecondJacBlock
	})
	t.Logf("plain %d iters, block-jacobi %d iters", plain.TotalIterations, block.TotalIterations)
	if block.TotalIterations > plain.TotalIterations {
		t.Errorf("block preconditioner increased iterations: %d > %d",
			block.TotalIterations, plain.TotalIterations)
	}
}
