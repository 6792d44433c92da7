package driver_test

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/serial"
	"github.com/warwick-hpsc/tealeaf-go/internal/chaos"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/profiler"
	"github.com/warwick-hpsc/tealeaf-go/internal/solver"
)

// profileDecks are the solver configurations the profile golden pins, on a
// 16x16 tea_bm mesh for two steps.
var profileDecks = []struct {
	name    string
	solver  config.SolverKind
	precond config.Preconditioner
}{
	{"cg", config.SolverCG, config.PrecondNone},
	{"cg-jac_diag", config.SolverCG, config.PrecondJacDiag},
	{"cg-jac_block", config.SolverCG, config.PrecondJacBlock},
	{"cheby-jac_diag", config.SolverChebyshev, config.PrecondJacDiag},
	{"ppcg", config.SolverPPCG, config.PrecondNone},
	{"jacobi", config.SolverJacobi, config.PrecondNone},
}

func profileDeck(s config.SolverKind, p config.Preconditioner) config.Config {
	cfg := config.BenchmarkN(16)
	cfg.EndStep = 2
	cfg.SummaryFrequency = 1
	cfg.Solver = s
	cfg.Preconditioner = p
	cfg.InitialTimestep = 0.4 // stiff enough that CG needs tens of iterations
	cfg.EigenCGIters = 5      // hand Chebyshev and PPCG over before CG converges
	return cfg
}

// profileLines renders every entry of prof except its wall time, sorted by
// kernel name, one per line under the deck name.
func profileLines(deck string, prof *profiler.Profile) []string {
	var out []string
	for _, e := range prof.Entries() {
		out = append(out, fmt.Sprintf("%s %s calls=%d bytes=%d flops=%d sweeps=%d",
			deck, e.Name, e.Calls, e.Bytes, e.Flops, e.Sweeps))
	}
	sort.Strings(out)
	return out
}

// TestProfileGolden pins what `tealeaf -profile` reports for manual-serial:
// every Instrumented entry's call count, attributed bytes and FLOPs, and
// full-field sweeps, for each solver and preconditioner the CG family and
// its siblings drive, plus a CG run that rolls back through a checkpoint
// (so restore_field's accounting is pinned too). The counts are exact: the
// serial port is deterministic, so its iteration counts are too.
func TestProfileGolden(t *testing.T) {
	var got []string
	for _, d := range profileDecks {
		cfg := profileDeck(d.solver, d.precond)
		prof := profiler.New()
		k := serial.New()
		if _, err := driver.Run(cfg, driver.Instrument(k, prof), solver.New(solver.FromConfig(&cfg)), nil); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		k.Close()
		got = append(got, profileLines(d.name, prof)...)
	}

	cfg := profileDeck(config.SolverCG, config.PrecondNone)
	prof := profiler.New()
	k := serial.New()
	faults, err := chaos.ParseSpec("panic@2.3")
	if err != nil {
		t.Fatal(err)
	}
	c := chaos.Wrap(driver.Instrument(k, prof), faults)
	pol := driver.RecoveryPolicy{CheckpointEvery: 1, MaxRetries: 2}
	res, err := driver.RunResilient(cfg, c, solver.New(solver.FromConfig(&cfg)), nil, pol)
	if err != nil {
		t.Fatalf("cg-rollback: %v", err)
	}
	if res.Recoveries != 1 || c.Fired() != 1 {
		t.Fatalf("cg-rollback: %d recoveries, %d faults fired; want 1 and 1", res.Recoveries, c.Fired())
	}
	k.Close()
	got = append(got, profileLines("cg-rollback", prof)...)

	want, err := os.ReadFile("testdata/profile_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if g := strings.Join(got, "\n") + "\n"; g != string(want) {
		t.Errorf("profile differs from testdata/profile_golden.txt; got:\n%s", g)
	}
}
