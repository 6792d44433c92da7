package mpi

import (
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/serial"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/solver"
)

func run(t *testing.T, k driver.Kernels, cfg config.Config) driver.Result {
	t.Helper()
	defer k.Close()
	res, err := driver.Run(cfg, k, solver.New(solver.FromConfig(&cfg)), nil)
	if err != nil {
		t.Fatalf("%s run failed: %v", k.Name(), err)
	}
	return res
}

// TestMatchesSerial verifies rank-count invariance: the distributed port
// must reproduce the serial reference QA totals for various world shapes,
// with and without per-rank threading.
func TestMatchesSerial(t *testing.T) {
	cfg := config.BenchmarkN(20)
	cfg.EndStep = 3
	want := run(t, serial.New(), cfg)
	cases := []struct {
		name           string
		ranks, threads int
	}{
		{"1rank", 1, 1},
		{"2ranks", 2, 1},
		{"3ranks", 3, 1},
		{"4ranks", 4, 1},
		{"6ranks", 6, 1},
		{"4ranks2threads", 4, 2},
		{"2ranks3threads", 2, 3},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got := run(t, New(c.ranks, c.threads), cfg)
			if d := driver.CompareTotals(want.Final, got.Final); d > 1e-8 {
				t.Errorf("totals diverge from serial by %g: got %+v want %+v", d, got.Final, want.Final)
			}
		})
	}
}

// TestUnevenDecomposition uses a mesh that does not divide evenly across
// ranks, exercising the remainder-cell distribution.
func TestUnevenDecomposition(t *testing.T) {
	cfg := config.BenchmarkN(17) // 17 cells across 4 ranks -> 5,4,4,4
	cfg.EndStep = 2
	want := run(t, serial.New(), cfg)
	got := run(t, New(4, 1), cfg)
	if d := driver.CompareTotals(want.Final, got.Final); d > 1e-8 {
		t.Errorf("totals diverge from serial by %g", d)
	}
}

// TestSolversMatchSerial checks the non-CG solvers distribute correctly
// (they stress halo exchange of different fields: u for Jacobi, sd for
// Chebyshev/PPCG).
func TestSolversMatchSerial(t *testing.T) {
	for _, kind := range []config.SolverKind{config.SolverJacobi, config.SolverChebyshev, config.SolverPPCG} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			cfg := config.BenchmarkN(16)
			cfg.EndStep = 2
			cfg.Solver = kind
			if kind == config.SolverJacobi {
				cfg.Eps = 1e-12
				cfg.MaxIters = 100000
			}
			want := run(t, serial.New(), cfg)
			got := run(t, New(4, 1), cfg)
			if d := driver.CompareTotals(want.Final, got.Final); d > 1e-6 {
				t.Errorf("%s totals diverge from serial by %g", kind, d)
			}
		})
	}
}
