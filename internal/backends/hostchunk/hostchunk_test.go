package hostchunk_test

import (
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/backendtest"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/hostchunk"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/mpi"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/omp"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/openacc"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/serial"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
)

// The serial and omp ports are nothing but the chunk under hostchunk.Serial
// and under a *par.Team, so they stand for those two row policies here.
func serialPolicy() driver.Kernels { return serial.New() }

func teamPolicy(threads int) backendtest.Factory {
	return func() driver.Kernels { return omp.New(threads) }
}

// solverDecks is tea_bm at n² under every solver and preconditioner the
// chunk has a body for.
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

// TestPolicyEquivalence is the executable statement of "the host versions
// differ only in policy": at width one every row policy hands the whole
// range to one share, so the serial policy, a 1-thread team, a 1-rank MPI
// world and the OpenACC host target at width 1 run the same bodies in the
// same order and must agree bit for bit.
func TestPolicyEquivalence(t *testing.T) {
	versions := map[string]backendtest.Factory{
		"team-1":         teamPolicy(1),
		"mpi-1x1":        func() driver.Kernels { return mpi.New(1, 1) },
		"openacc-host-1": func() driver.Kernels { return openacc.New(openacc.TargetHost, 1) },
	}
	for deck, cfg := range solverDecks(32) {
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
// race detector's view of the shared chunk): shares regroup the reductions,
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

func TestReflectHalo(t *testing.T) {
	v := func(i, j int) float64 { return float64(10*i + j) }
	fill := func() *grid.Field {
		f := grid.New(4, 3)
		for j := 0; j < 3; j++ {
			for i := 0; i < 4; i++ {
				f.Set(i, j, v(i, j))
			}
		}
		return f
	}
	f := fill()
	hostchunk.Reflect(hostchunk.Serial{}, f, 2, hostchunk.AllSides)
	cases := []struct {
		i, j int
		want float64
	}{
		{-1, 0, v(0, 0)}, {-2, 0, v(1, 0)},
		{4, 1, v(3, 1)}, {5, 1, v(2, 1)},
		{0, -1, v(0, 0)}, {0, -2, v(0, 1)},
		{2, 3, v(2, 2)}, {2, 4, v(2, 1)},
		// Corners: y-mirror of the x-mirrored halo.
		{-1, -1, v(0, 0)}, {5, 4, v(2, 1)},
	}
	for _, c := range cases {
		if got := f.At(c.i, c.j); got != c.want {
			t.Errorf("halo (%d,%d) = %g, want %g", c.i, c.j, got, c.want)
		}
	}
	// A side left out is a side with a neighbour: its halo is not touched.
	g := fill()
	hostchunk.Reflect(hostchunk.Serial{}, g, 2, hostchunk.Left|hostchunk.Up)
	for _, c := range []struct {
		i, j int
		want float64
	}{{-2, 1, v(1, 1)}, {4, 1, 0}, {1, -1, 0}, {1, 4, v(1, 1)}, {-1, 3, v(0, 2)}, {4, 3, 0}} {
		if got := g.At(c.i, c.j); got != c.want {
			t.Errorf("left|up halo (%d,%d) = %g, want %g", c.i, c.j, got, c.want)
		}
	}
}
