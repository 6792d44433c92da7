// Package backendtest is the cross-port conformance suite: every TeaLeaf
// port must reproduce the serial reference physics. Each backend package
// runs Conformance against its own factory, so all nine ports face the
// same battery.
package backendtest

import (
	"slices"
	"sync"
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/serial"
	"github.com/warwick-hpsc/tealeaf-go/internal/chaos"
	"github.com/warwick-hpsc/tealeaf-go/internal/comm"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/solver"
)

// Factory creates a fresh port instance.
type Factory func() driver.Kernels

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if s := max(abs(a), abs(b)); s > 1 {
		scale = s
	}
	return d / scale
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Run executes a full simulation of cfg on a fresh port from factory.
func Run(t *testing.T, factory Factory, cfg config.Config) driver.Result {
	t.Helper()
	k := factory()
	defer k.Close()
	res, err := driver.Run(cfg, k, solver.New(solver.FromConfig(&cfg)), nil)
	if err != nil {
		t.Fatalf("%s run failed: %v", k.Name(), err)
	}
	return res
}

// mustCompare returns the largest relative QA difference between two runs,
// failing the test outright when both summaries are zero-valued (a vacuous
// comparison: it means no field summary was ever taken).
func mustCompare(t *testing.T, want, got driver.Totals) float64 {
	t.Helper()
	d, err := driver.CompareTotalsChecked(want, got)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// reference memoises serial-reference results per configuration so the
// suite does not recompute them for every backend.
var (
	refMu    sync.Mutex
	refCache = map[string]driver.Result{}
)

func reference(t *testing.T, cfg config.Config) driver.Result {
	t.Helper()
	key := cfg.Summary()
	refMu.Lock()
	defer refMu.Unlock()
	if res, ok := refCache[key]; ok {
		return res
	}
	res := Run(t, func() driver.Kernels { return serial.New() }, cfg)
	refCache[key] = res
	return res
}

// sweepCheck wraps a port and, after each of its one-sweep CG kernels,
// redoes what the sweep fused with the port's separate kernels. It stops
// checking at the first mismatch, which would otherwise repeat every call.
type sweepCheck struct {
	driver.Kernels
	t        *testing.T
	w, ur    int // CGCalcW and CGCalcUR calls
	urPrecon int // of which preconditioned
}

// CGCalcW checks the returned p·w against the dot of the fetched p and w.
// The host sums in another order than the port, so the bound is relative
// to the sum of the terms' magnitudes.
func (c *sweepCheck) CGCalcW() float64 {
	pw := c.Kernels.CGCalcW()
	c.w++
	if c.t.Failed() {
		return pw
	}
	p, w := c.FetchField(driver.FieldP), c.FetchField(driver.FieldW)
	var dot, mag float64
	for i := range p {
		dot += p[i] * w[i]
		mag += abs(p[i] * w[i])
	}
	if abs(pw-dot) > 1e-12*mag {
		c.t.Errorf("%s: CGCalcW returned p·w = %v, the fetched fields give %v", c.Name(), pw, dot)
	}
	return pw
}

// CGCalcUR checks the sweep against the sequence it replaces: r·r must be
// Norm2R's bits; preconditioned, applying the preconditioner again must
// leave z unchanged and r·z must be DotRZ's bits.
func (c *sweepCheck) CGCalcUR(alpha float64, precond bool) float64 {
	rr := c.Kernels.CGCalcUR(alpha, precond)
	c.ur++
	if precond {
		c.urPrecon++
	}
	if c.t.Failed() {
		return rr
	}
	if !precond {
		if n := c.Norm2R(); n != rr {
			c.t.Errorf("%s: CGCalcUR returned r·r = %v, Norm2R %v", c.Name(), rr, n)
		}
		return rr
	}
	z := c.FetchField(driver.FieldZ)
	c.ApplyPrecond()
	if again := c.FetchField(driver.FieldZ); !slices.Equal(z, again) {
		c.t.Errorf("%s: CGCalcUR left a z that ApplyPrecond changes", c.Name())
	}
	if rz := c.DotRZ(); rz != rr {
		c.t.Errorf("%s: CGCalcUR returned r·z = %v, DotRZ %v", c.Name(), rr, rz)
	}
	return rr
}

// FusionEquivalence checks that a port's CGCalcW and CGCalcUR, each one
// sweep, equal the separate kernels they fuse, at every call of a whole
// run: the returned p·w is the dot of the w the sweep wrote, and the u/r
// update's sweep leaves the z and returns the r·z (or r·r) that
// ApplyPrecond and DotRZ (or Norm2R) give. Reductions must match bitwise,
// because a port's one-sweep kernels keep the row order and combine order
// of its dot kernels.
func FusionEquivalence(t *testing.T, factory Factory) {
	decks := []struct {
		name    string
		precond bool
		mutate  func(*config.Config)
	}{
		{"PlainCG", false, func(cfg *config.Config) {}},
		{"DiagPrecondCG", true, func(cfg *config.Config) { cfg.Preconditioner = config.PrecondJacDiag }},
		{"BlockPrecondCG", true, func(cfg *config.Config) { cfg.Preconditioner = config.PrecondJacBlock }},
		{"PPCG", false, func(cfg *config.Config) { cfg.Solver = config.SolverPPCG }},
	}
	for _, deck := range decks {
		deck := deck
		t.Run(deck.name, func(t *testing.T) {
			cfg := config.BenchmarkN(16)
			cfg.EndStep = 2
			deck.mutate(&cfg)
			var c *sweepCheck
			Run(t, func() driver.Kernels {
				c = &sweepCheck{Kernels: factory(), t: t}
				return c
			}, cfg)
			if c.w == 0 || c.ur == 0 || (c.urPrecon > 0) != deck.precond {
				t.Errorf("checked %d CGCalcW and %d CGCalcUR calls (%d preconditioned)", c.w, c.ur, c.urPrecon)
			}
		})
	}
}

// ChaosConformance is the resilience half of the conformance contract: the
// port runs the same deck under a deterministic fault schedule — in-kernel
// panics and NaN-poisoned reductions injected by the chaos wrapper — with
// checkpoint/rollback recovery, and the recovered result must match the
// fault-free run of the same port to 1e-12 relative. That tolerance is only
// achievable because injected faults are one-shot: the replayed step after a
// rollback re-executes bit-identically, so recovery is exact, not merely
// approximate.
//
// The fault coordinates are kind@stepExecution.kernelCall against the CG
// step shape (call 1 halo, 2 solve-init, 3 CGInitP, 4 halo(p), 5 w=Ap, ...),
// and executions count every attempt, so a fault at execution N perturbs the
// run once and the following execution is its clean replay.
func ChaosConformance(t *testing.T, factory Factory) {
	cfg := config.BenchmarkN(16)
	cfg.EndStep = 3

	ref := Run(t, factory, cfg)

	cases := []struct {
		name string
		spec string
		// minimum recoveries the schedule must force (each fired fault
		// fails one step execution).
		recoveries int
	}{
		// A panic out of the w = A p sweep of step 2 — the shape of a comm
		// RankError or any in-kernel crash.
		{"PanicMidSolve", "panic@2.5", 1},
		// CGInitP of step 2 reports NaN: the solver's reduction guard turns
		// it into ErrBreakdown, which escalates to the driver and rolls back.
		{"NaNReduction", "nan@2.3", 1},
		// Both, in sequence: execution 2 (sim step 2) dies, execution 3
		// replays it clean, execution 4 (sim step 3) is poisoned, execution 5
		// replays it clean.
		{"PanicThenNaN", "panic@2.5;nan@4.3", 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			faults, err := chaos.ParseSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			k := factory()
			defer k.Close()
			c := chaos.Wrap(k, faults)
			res, err := driver.RunResilient(cfg, c, solver.New(solver.FromConfig(&cfg)), nil,
				driver.RecoveryPolicy{CheckpointEvery: 1, MaxRetries: 3})
			if err != nil {
				t.Fatalf("%s did not recover from %q: %v", k.Name(), tc.spec, err)
			}
			if c.Fired() != len(faults) {
				t.Fatalf("%d of %d scheduled faults fired — the schedule missed its coordinates", c.Fired(), len(faults))
			}
			if res.Recoveries < tc.recoveries {
				t.Fatalf("recoveries = %d, want >= %d", res.Recoveries, tc.recoveries)
			}
			if d := mustCompare(t, ref.Final, res.Final); d > 1e-12 {
				t.Errorf("recovered run diverges from the fault-free run by %g:\n      got %+v\nfault-free %+v",
					d, res.Final, ref.Final)
			}
		})
	}
}

// SDCConformance is the silent-data-corruption half of the resilience
// contract: a finite bit-flip — in solver state, in a reduction, or on the
// wire — must be detected by the ABFT monitor or the comm checksums, and
// the recovered run must match a fault-free monitored run of the same port
// to 1e-12. A negative control proves the faults are genuinely silent:
// with detection off the same flip yields a converged, finite and provably
// wrong answer.
//
// Detection makes 1e-12 agreement possible because every injected fault is
// one-shot and (for state flips) the rollback restores the corrupted field
// from the last CRC-validated checkpoint, so the replay is bit-identical.
// The reference run keeps the monitor ON: the drift check's residual
// replacement legitimately perturbs the trajectory at rounding level, so
// recovery is compared against the monitored trajectory, not the plain one.
func SDCConformance(t *testing.T, factory Factory) {
	cfg := config.BenchmarkN(16)
	cfg.EndStep = 3

	monOpt := func() solver.Options {
		opt := solver.FromConfig(&cfg)
		// Check every 2 iterations so a mid-solve flip is caught within the
		// faulted step; MaxRestarts stays 0 (the FromConfig default) so a
		// tripped invariant escalates straight to driver rollback instead of
		// a solver restart, whose self-healed trajectory would not be
		// bit-identical.
		opt.SDCCheckEvery = 2
		return opt
	}
	pol := driver.RecoveryPolicy{CheckpointEvery: 1, MaxRetries: 3}

	refK := factory()
	ref, err := driver.Run(cfg, refK, solver.New(monOpt()), nil)
	refK.Close()
	if err != nil {
		t.Fatalf("monitored fault-free run failed: %v", err)
	}

	// runFaulted runs the deck under a chaos schedule with rollback recovery
	// and demands detection, recovery and 1e-12 agreement with the
	// fault-free monitored run.
	runFaulted := func(t *testing.T, spec string) {
		faults, err := chaos.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		k := factory()
		defer k.Close()
		c := chaos.Wrap(k, faults)
		res, err := driver.RunResilient(cfg, c, solver.New(monOpt()), nil, pol)
		if err != nil {
			t.Fatalf("%s did not recover from %q: %v", k.Name(), spec, err)
		}
		if c.Fired() != len(faults) {
			t.Fatalf("%d of %d scheduled faults fired — the schedule missed its coordinates",
				c.Fired(), len(faults))
		}
		if res.SDCDetected < 1 || res.SDCRecovered < 1 {
			t.Fatalf("SDC counters = %d detected / %d recovered, want >= 1 each",
				res.SDCDetected, res.SDCRecovered)
		}
		if res.Recoveries < 1 {
			t.Fatalf("recoveries = %d, want >= 1", res.Recoveries)
		}
		if d := mustCompare(t, ref.Final, res.Final); d > 1e-12 {
			t.Errorf("recovered run diverges from the fault-free run by %g:\n      got %+v\nfault-free %+v",
				d, res.Final, ref.Final)
		}
	}

	// Bit 52 of a u element flips during step 2's solve (call 7 = first
	// CGCalcP, after u has been updated once): the recursive residual keeps
	// converging while the true one does not, and the periodic drift check
	// raises ErrSDC.
	t.Run("StateFlip", func(t *testing.T) { runFaulted(t, "flip@2.7") })

	// The first r·z reduction of step 2's solve reports its sign flipped:
	// the SPD positivity guard raises ErrSDC without waiting for a drift
	// check.
	t.Run("ReductionSignFlip", func(t *testing.T) { runFaulted(t, "flipred@2.6") })

	// Negative control: the identical state flip with detection off. The
	// run must complete, converge and produce finite totals that are
	// provably wrong — demonstrating the fault is silent, not benign.
	t.Run("NegativeControl", func(t *testing.T) {
		faults, err := chaos.ParseSpec("flip@2.7")
		if err != nil {
			t.Fatal(err)
		}
		k := factory()
		defer k.Close()
		c := chaos.Wrap(k, faults)
		res, err := driver.Run(cfg, c, solver.New(solver.FromConfig(&cfg)), nil)
		if err != nil {
			t.Fatalf("undetected flip aborted the run (it must be silent): %v", err)
		}
		if c.Fired() != 1 {
			t.Fatal("the control flip never fired")
		}
		for name, v := range map[string]float64{
			"volume": res.Final.Volume, "mass": res.Final.Mass,
			"ie": res.Final.InternalEnergy, "temp": res.Final.Temperature,
		} {
			if v != v || v-v != 0 { // NaN or Inf
				t.Fatalf("%s = %g is non-finite; the flip must corrupt silently", name, v)
			}
		}
		if d := mustCompare(t, ref.Final, res.Final); d < 1e-9 {
			t.Errorf("undetected flip diverged by only %g — fault too weak to prove detection matters", d)
		}
	})

	// Comm-layer cases for ports that expose their communication world: a
	// wire flip under CRC checksums is either repaired from the pristine
	// retransmission copy (send payloads) or escalated as a CorruptionError
	// and rolled back (collective contributions, sticky flips). Both end in
	// a run that matches the fault-free one to 1e-12.
	type worlder interface{ World() *comm.World }

	commCase := func(t *testing.T, sticky bool) {
		k := factory()
		defer k.Close()
		wp, ok := k.(worlder)
		if !ok {
			t.Skipf("%s has no communication world", k.Name())
		}
		w := wp.World()
		if w.Size() < 2 {
			t.Skipf("%s runs a single-rank world: no wire traffic to corrupt", k.Name())
		}
		w.SetChecksums(true)
		defer w.SetChecksums(false)
		sched := comm.NewSchedule(11)
		sched.Rules = []comm.Rule{{
			Action: comm.ActFlip, Rank: 1, Op: 60, Tag: -1,
			Bit: comm.DefaultFlipBit, Sticky: sticky,
		}}
		w.SetFaultInjector(sched)
		defer w.SetFaultInjector(nil)

		res, err := driver.RunResilient(cfg, k, solver.New(monOpt()), nil, pol)
		if err != nil {
			t.Fatalf("%s did not survive the wire flip: %v", k.Name(), err)
		}
		det, rec := w.ChecksumStats()
		if det < 1 {
			t.Fatalf("checksums detected %d corruptions, want >= 1 (repaired %d)", det, rec)
		}
		if sticky && res.Recoveries < 1 && rec > 0 {
			t.Errorf("sticky flip was silently repaired (%d repairs, %d recoveries) — escalation never happened",
				rec, res.Recoveries)
		}
		if d := mustCompare(t, ref.Final, res.Final); d > 1e-12 {
			t.Errorf("run after wire flip diverges from fault-free by %g", d)
		}
	}
	t.Run("CommFlipRepaired", func(t *testing.T) { commCase(t, false) })
	t.Run("CommFlipSticky", func(t *testing.T) { commCase(t, true) })
}

// Conformance checks a port against the serial reference across solvers,
// problem shapes and preconditioning.
func Conformance(t *testing.T, factory Factory) {
	t.Run("CGMatchesSerial", func(t *testing.T) {
		cfg := config.BenchmarkN(20)
		cfg.EndStep = 3
		want := reference(t, cfg)
		got := Run(t, factory, cfg)
		if d := mustCompare(t, want.Final, got.Final); d > 1e-8 {
			t.Errorf("totals diverge from serial by %g:\n got %+v\nwant %+v", d, got.Final, want.Final)
		}
	})
	t.Run("NonSquareMesh", func(t *testing.T) {
		// A wide, shallow mesh stresses decomposition and halo indexing
		// asymmetry.
		cfg := config.BenchmarkN(16)
		cfg.NX, cfg.NY = 33, 7
		cfg.EndStep = 2
		want := reference(t, cfg)
		got := Run(t, factory, cfg)
		if d := mustCompare(t, want.Final, got.Final); d > 1e-8 {
			t.Errorf("totals diverge from serial by %g", d)
		}
	})
	t.Run("RecipCoefficient", func(t *testing.T) {
		cfg := config.BenchmarkN(16)
		cfg.EndStep = 2
		cfg.Coefficient = config.RecipConductivity
		want := reference(t, cfg)
		got := Run(t, factory, cfg)
		if d := mustCompare(t, want.Final, got.Final); d > 1e-8 {
			t.Errorf("totals diverge from serial by %g", d)
		}
	})
	t.Run("PreconditionedCG", func(t *testing.T) {
		cfg := config.BenchmarkN(16)
		cfg.EndStep = 2
		cfg.Preconditioner = config.PrecondJacDiag
		want := reference(t, cfg)
		got := Run(t, factory, cfg)
		if d := mustCompare(t, want.Final, got.Final); d > 1e-8 {
			t.Errorf("totals diverge from serial by %g", d)
		}
	})
	t.Run("BlockPreconditionedCG", func(t *testing.T) {
		// jac_block is decomposition-dependent (each chunk line-solves its
		// own rows), so distributed ports legitimately take slightly
		// different CG trajectories than serial; the hard convergence
		// tolerance still pins the answers together.
		cfg := config.BenchmarkN(16)
		cfg.EndStep = 2
		cfg.Preconditioner = config.PrecondJacBlock
		want := reference(t, cfg)
		got := Run(t, factory, cfg)
		if d := mustCompare(t, want.Final, got.Final); d > 1e-7 {
			t.Errorf("totals diverge from serial by %g", d)
		}
	})
	for _, kind := range []config.SolverKind{config.SolverJacobi, config.SolverChebyshev, config.SolverPPCG} {
		kind := kind
		t.Run("Solver_"+kind.String(), func(t *testing.T) {
			cfg := config.BenchmarkN(16)
			cfg.EndStep = 2
			cfg.Solver = kind
			if kind == config.SolverJacobi {
				cfg.Eps = 1e-12
				cfg.MaxIters = 100000
			}
			want := reference(t, cfg)
			got := Run(t, factory, cfg)
			if d := mustCompare(t, want.Final, got.Final); d > 1e-6 {
				t.Errorf("%s totals diverge from serial by %g", kind, d)
			}
		})
	}
	t.Run("FieldLevelAgreement", func(t *testing.T) {
		// Beyond the four QA totals: the full temperature and energy fields
		// must match the serial reference cell for cell.
		cfg := config.BenchmarkN(18)
		cfg.EndStep = 2
		refK := serial.New()
		defer refK.Close()
		if _, err := driver.Run(cfg, refK, solver.New(solver.FromConfig(&cfg)), nil); err != nil {
			t.Fatal(err)
		}
		k := factory()
		defer k.Close()
		if _, err := driver.Run(cfg, k, solver.New(solver.FromConfig(&cfg)), nil); err != nil {
			t.Fatal(err)
		}
		for _, id := range []driver.FieldID{driver.FieldU, driver.FieldEnergy0, driver.FieldDensity} {
			want := refK.FetchField(id)
			got := k.FetchField(id)
			if len(got) != len(want) {
				t.Fatalf("%v: fetched %d cells, want %d", id, len(got), len(want))
			}
			worst, at := 0.0, -1
			for i := range want {
				d := relDiff(got[i], want[i])
				if d > worst {
					worst, at = d, i
				}
			}
			if worst > 1e-8 {
				t.Errorf("%v: cell %d differs by %g (got %g want %g)",
					id, at, worst, got[at], want[at])
			}
		}
	})
	t.Run("EndTimeBoundedRun", func(t *testing.T) {
		// Regression for the driver's missing-final-summary bug: a deck
		// whose end_time lands before end_step must still produce a
		// non-zero final summary that matches the reference.
		cfg := config.BenchmarkN(16)
		cfg.EndStep = 10
		cfg.SummaryFrequency = 0
		cfg.EndTime = 2.5 * cfg.InitialTimestep
		want := reference(t, cfg)
		got := Run(t, factory, cfg)
		if got.Final == (driver.Totals{}) {
			t.Fatal("end_time-bounded run produced a zero-valued final summary")
		}
		if d := mustCompare(t, want.Final, got.Final); d > 1e-8 {
			t.Errorf("totals diverge from serial by %g", d)
		}
	})
	t.Run("MultiState", func(t *testing.T) {
		// Three material states including a circle and a point source.
		cfg := config.BenchmarkN(20)
		cfg.EndStep = 2
		cfg.States = append(cfg.States,
			config.State{Index: 3, Density: 5, Energy: 10,
				Geometry: config.GeomCircular, XMin: 7, YMin: 7, Radius: 2},
			config.State{Index: 4, Density: 2, Energy: 40,
				Geometry: config.GeomPoint, XMin: 2.5, YMin: 8.5},
		)
		want := reference(t, cfg)
		got := Run(t, factory, cfg)
		if d := mustCompare(t, want.Final, got.Final); d > 1e-8 {
			t.Errorf("totals diverge from serial by %g", d)
		}
	})
}

// TilingEquivalence checks that cross-iteration loop-chain tiling is an
// equivalence-preserving optimisation: the same deck solved on a tiled and
// an untiled instance of the same port must produce field summaries
// matching to 1e-12 relative, across solver kinds, preconditioners and
// mesh shapes. Ports built on the ops deferred-reduction API match bitwise
// by construction — both modes fold identical per-row partials in the same
// order — so 1e-12 leaves headroom only for ports that cannot.
//
// The chaos and SDC arms run the fault on the TILED instance and compare
// against the UNTILED fault-free run: a rollback must discard the
// partially-queued chain and the replay must re-queue and re-flush it
// bit-identically, or the recovered trajectory drifts past the bar.
func TilingEquivalence(t *testing.T, tiled, untiled Factory) {
	decks := []struct {
		name   string
		mutate func(*config.Config)
	}{
		{"PlainCG", func(cfg *config.Config) {}},
		{"DiagPrecondCG", func(cfg *config.Config) { cfg.Preconditioner = config.PrecondJacDiag }},
		{"BlockPrecondCG", func(cfg *config.Config) { cfg.Preconditioner = config.PrecondJacBlock }},
		{"PPCG", func(cfg *config.Config) { cfg.Solver = config.SolverPPCG }},
		{"Chebyshev", func(cfg *config.Config) { cfg.Solver = config.SolverChebyshev }},
		{"Jacobi", func(cfg *config.Config) {
			cfg.Solver = config.SolverJacobi
			cfg.Eps = 1e-12
			cfg.MaxIters = 100000
		}},
		{"NonSquareMesh", func(cfg *config.Config) { cfg.NX, cfg.NY = 33, 7 }},
	}
	for _, deck := range decks {
		deck := deck
		t.Run(deck.name, func(t *testing.T) {
			cfg := config.BenchmarkN(16)
			cfg.EndStep = 3
			deck.mutate(&cfg)
			want := Run(t, untiled, cfg)
			got := Run(t, tiled, cfg)
			if d := mustCompare(t, want.Final, got.Final); d > 1e-12 {
				t.Errorf("tiled and untiled runs diverge by %g:\n  tiled %+v\nuntiled %+v",
					d, got.Final, want.Final)
			}
		})
	}

	// A panic out of the w = A p sweep of step 2 leaves a partially-flushed
	// chain behind; rollback must discard it and the replay must match the
	// untiled fault-free run exactly.
	t.Run("ChaosRollbackReplaysChain", func(t *testing.T) {
		cfg := config.BenchmarkN(16)
		cfg.EndStep = 3
		ref := Run(t, untiled, cfg)
		faults, err := chaos.ParseSpec("panic@2.5")
		if err != nil {
			t.Fatal(err)
		}
		k := tiled()
		defer k.Close()
		c := chaos.Wrap(k, faults)
		res, err := driver.RunResilient(cfg, c, solver.New(solver.FromConfig(&cfg)), nil,
			driver.RecoveryPolicy{CheckpointEvery: 1, MaxRetries: 3})
		if err != nil {
			t.Fatalf("tiled port did not recover: %v", err)
		}
		if c.Fired() != len(faults) {
			t.Fatalf("%d of %d faults fired", c.Fired(), len(faults))
		}
		if res.Recoveries < 1 {
			t.Fatalf("recoveries = %d, want >= 1", res.Recoveries)
		}
		if d := mustCompare(t, ref.Final, res.Final); d > 1e-12 {
			t.Errorf("recovered tiled run diverges from untiled fault-free by %g", d)
		}
	})

	// A silent state flip mid-solve under the ABFT monitor: detection,
	// checkpoint restore (which discards the queued chain) and replay on the
	// tiled instance must land on the untiled monitored trajectory.
	t.Run("SDCStateFlipUnderTiling", func(t *testing.T) {
		cfg := config.BenchmarkN(16)
		cfg.EndStep = 3
		monOpt := func() solver.Options {
			opt := solver.FromConfig(&cfg)
			opt.SDCCheckEvery = 2
			return opt
		}
		refK := untiled()
		ref, err := driver.Run(cfg, refK, solver.New(monOpt()), nil)
		refK.Close()
		if err != nil {
			t.Fatalf("monitored untiled run failed: %v", err)
		}
		faults, err := chaos.ParseSpec("flip@2.7")
		if err != nil {
			t.Fatal(err)
		}
		k := tiled()
		defer k.Close()
		c := chaos.Wrap(k, faults)
		res, err := driver.RunResilient(cfg, c, solver.New(monOpt()), nil,
			driver.RecoveryPolicy{CheckpointEvery: 1, MaxRetries: 3})
		if err != nil {
			t.Fatalf("tiled port did not recover from the flip: %v", err)
		}
		if res.SDCDetected < 1 || res.SDCRecovered < 1 {
			t.Fatalf("SDC counters = %d detected / %d recovered, want >= 1 each",
				res.SDCDetected, res.SDCRecovered)
		}
		if d := mustCompare(t, ref.Final, res.Final); d > 1e-12 {
			t.Errorf("recovered tiled run diverges from untiled monitored run by %g", d)
		}
	})
}
