// Package chaos wraps any TeaLeaf port with deterministic kernel-level
// fault injection for resilience testing: scheduled faults fire at an exact
// (step, kernel-call) coordinate, exactly once, so a run under a fault
// schedule is reproducible and — after checkpoint rollback — replays
// bit-identically to a fault-free run. That one-shot property is what lets
// backendtest.ChaosConformance demand 1e-12 agreement between a faulted
// run with recovery and a clean one.
package chaos

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/warwick-hpsc/tealeaf-go/internal/comm"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
)

// ErrInjected marks every fault this package fires; recovery tests match it
// with errors.Is to distinguish injected failures from real bugs.
var ErrInjected = errors.New("chaos: injected fault")

// Fault kinds.
const (
	// KindPanic panics out of the matched kernel call — the shape of a comm
	// RankError or any other in-kernel crash.
	KindPanic = "panic"
	// KindNaN arms NaN poisoning: the next reduction-returning kernel call
	// reports NaN instead of its true value (port state stays untouched, so
	// a rolled-back replay is bit-identical). This is the shape of a
	// corrupted message folding into a reduction.
	KindNaN = "nan"
	// KindFlip flips bit 52 of the central interior element of u at the
	// matched coordinate — a finite ×2/÷2 single-event upset in solver
	// state that no NaN or divergence guard can see. Only the solver's
	// ABFT drift monitor (Options.SDCCheckEvery) detects it; with the
	// monitor off the run converges to a silently wrong answer, which is
	// exactly what backendtest.SDCConformance's negative control proves.
	KindFlip = "flip"
	// KindFlipRed arms a sign flip (bit 63) of the next reduction-returning
	// kernel call — the shape of a corrupted collective contribution. For an
	// SPD system the flipped value violates the positivity invariant the
	// monitor's sign guard checks. Like KindNaN it never touches port
	// state, so a rolled-back replay is bit-identical.
	KindFlipRed = "flipred"
)

// Fault is one scheduled injection: fire Kind at the Call-th kernel call of
// the Step-th step execution. Steps count SetField calls (each step attempt
// starts with one, so after a rollback the counter keeps advancing — a
// fault names an execution, not a simulation step, which is what makes it
// one-shot under replay by construction). Calls count every kernel call
// after that step's SetField, starting at 1.
type Fault struct {
	Kind string
	Step int
	Call int
}

// ParseSpec parses a chaos schedule like "panic@2.1;nan@3.4": each clause
// is kind@step.call.
func ParseSpec(spec string) ([]Fault, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("chaos: empty fault spec")
	}
	var out []Fault
	for _, clause := range strings.Split(spec, ";") {
		kind, at, ok := strings.Cut(strings.TrimSpace(clause), "@")
		if !ok {
			return nil, fmt.Errorf("chaos: clause %q is not kind@step.call", clause)
		}
		switch kind {
		case KindPanic, KindNaN, KindFlip, KindFlipRed:
		default:
			return nil, fmt.Errorf("chaos: unknown fault kind %q (want %s, %s, %s or %s)",
				kind, KindPanic, KindNaN, KindFlip, KindFlipRed)
		}
		stepStr, callStr, ok := strings.Cut(at, ".")
		if !ok {
			return nil, fmt.Errorf("chaos: clause %q is not kind@step.call", clause)
		}
		step, err := strconv.Atoi(stepStr)
		if err != nil || step < 1 {
			return nil, fmt.Errorf("chaos: bad step in %q", clause)
		}
		call, err := strconv.Atoi(callStr)
		if err != nil || call < 1 {
			return nil, fmt.Errorf("chaos: bad call in %q", clause)
		}
		out = append(out, Fault{Kind: kind, Step: step, Call: call})
	}
	return out, nil
}

// Kernels wraps a port with a fault schedule. It forwards every kernel to
// the wrapped port, forwarding the optional FieldRestorer capability
// honestly through the CapabilityReporter protocol, and fires each
// scheduled fault exactly once.
type Kernels struct {
	inner   driver.Kernels
	faults  []Fault
	step    int  // SetField calls seen
	call    int  // kernel calls within the current step
	armNaN  bool // next reduction reports NaN
	armFlip bool // next reduction reports its sign flipped
	fired   int
}

// Wrap builds a chaos wrapper over port with the given schedule.
func Wrap(port driver.Kernels, faults []Fault) *Kernels {
	return &Kernels{inner: port, faults: faults}
}

// Fired reports how many scheduled faults have fired, so tests can assert
// the schedule actually hit.
func (c *Kernels) Fired() int { return c.fired }

// tick advances the call counter and fires any fault scheduled for this
// coordinate.
func (c *Kernels) tick() {
	c.call++
	for i := range c.faults {
		f := &c.faults[i]
		if f.Step != c.step || f.Call != c.call || f.Kind == "" {
			continue
		}
		kind := f.Kind
		f.Kind = "" // one-shot: never re-fires, in this attempt or a replay
		c.fired++
		switch kind {
		case KindPanic:
			panic(fmt.Errorf("%w: panic at step %d call %d", ErrInjected, c.step, c.call))
		case KindNaN:
			c.armNaN = true
		case KindFlip:
			c.flipState()
		case KindFlipRed:
			c.armFlip = true
		}
	}
}

// flipState flips bit 52 of the central interior element of u through the
// checkpoint read/write path, silently corrupting persistent solver state.
func (c *Kernels) flipState() {
	fr := driver.AsFieldRestorer(c.inner)
	if fr == nil {
		panic(fmt.Errorf("%w: flip fault needs a FieldRestorer port, %s has none",
			ErrInjected, c.inner.Name()))
	}
	u := c.inner.FetchField(driver.FieldU)
	if len(u) == 0 {
		panic(fmt.Errorf("%w: flip fault fired before u exists", ErrInjected))
	}
	mid := len(u) / 2
	u[mid] = comm.FlipBits(u[mid], comm.DefaultFlipBit)
	fr.RestoreField(driver.FieldU, u)
}

// poison substitutes a corrupted value for a reduction result when armed.
func (c *Kernels) poison(v float64) float64 {
	if c.armNaN {
		c.armNaN = false
		return math.NaN()
	}
	if c.armFlip {
		c.armFlip = false
		return comm.FlipBits(v, 63)
	}
	return v
}

// Name implements driver.Kernels.
func (c *Kernels) Name() string { return c.inner.Name() + "+chaos" }

// Generate implements driver.Kernels.
func (c *Kernels) Generate(m *grid.Mesh, states []config.State) error {
	return c.inner.Generate(m, states)
}

// SetField implements driver.Kernels and marks the start of a step
// execution.
func (c *Kernels) SetField() {
	c.step++
	c.call = 0
	c.armNaN = false // un-fired poison does not leak across attempts
	c.armFlip = false
	c.inner.SetField()
}

// FieldSummary implements driver.Kernels.
func (c *Kernels) FieldSummary() driver.Totals { c.tick(); return c.inner.FieldSummary() }

// HaloExchange implements driver.Kernels.
func (c *Kernels) HaloExchange(fields []driver.FieldID, depth int) {
	c.tick()
	c.inner.HaloExchange(fields, depth)
}

// SolveInit implements driver.Kernels.
func (c *Kernels) SolveInit(coef config.Coefficient, rx, ry float64, precond config.Preconditioner) {
	c.tick()
	c.inner.SolveInit(coef, rx, ry, precond)
}

// SolveFinalise implements driver.Kernels.
func (c *Kernels) SolveFinalise() { c.tick(); c.inner.SolveFinalise() }

// ResetField implements driver.Kernels.
func (c *Kernels) ResetField() { c.tick(); c.inner.ResetField() }

// CalcResidual implements driver.Kernels.
func (c *Kernels) CalcResidual() { c.tick(); c.inner.CalcResidual() }

// Norm2R implements driver.Kernels.
func (c *Kernels) Norm2R() float64 { c.tick(); return c.poison(c.inner.Norm2R()) }

// DotRZ implements driver.Kernels.
func (c *Kernels) DotRZ() float64 { c.tick(); return c.poison(c.inner.DotRZ()) }

// ApplyPrecond implements driver.Kernels.
func (c *Kernels) ApplyPrecond() { c.tick(); c.inner.ApplyPrecond() }

// CGInitP implements driver.Kernels.
func (c *Kernels) CGInitP(precond bool) float64 { c.tick(); return c.poison(c.inner.CGInitP(precond)) }

// CGCalcW implements driver.Kernels.
func (c *Kernels) CGCalcW() float64 { c.tick(); return c.poison(c.inner.CGCalcW()) }

// CGCalcUR implements driver.Kernels.
func (c *Kernels) CGCalcUR(alpha float64, precond bool) float64 {
	c.tick()
	return c.poison(c.inner.CGCalcUR(alpha, precond))
}

// CGCalcP implements driver.Kernels.
func (c *Kernels) CGCalcP(beta float64, precond bool) { c.tick(); c.inner.CGCalcP(beta, precond) }

// JacobiCopyU implements driver.Kernels.
func (c *Kernels) JacobiCopyU() { c.tick(); c.inner.JacobiCopyU() }

// JacobiIterate implements driver.Kernels.
func (c *Kernels) JacobiIterate() float64 { c.tick(); return c.poison(c.inner.JacobiIterate()) }

// ChebyInit implements driver.Kernels.
func (c *Kernels) ChebyInit(theta float64, precond bool) { c.tick(); c.inner.ChebyInit(theta, precond) }

// ChebyIterate implements driver.Kernels.
func (c *Kernels) ChebyIterate(alpha, beta float64, precond bool) {
	c.tick()
	c.inner.ChebyIterate(alpha, beta, precond)
}

// PPCGInitInner implements driver.Kernels.
func (c *Kernels) PPCGInitInner(theta float64) { c.tick(); c.inner.PPCGInitInner(theta) }

// PPCGInnerIterate implements driver.Kernels.
func (c *Kernels) PPCGInnerIterate(alpha, beta float64) {
	c.tick()
	c.inner.PPCGInnerIterate(alpha, beta)
}

// PPCGFinishInner implements driver.Kernels.
func (c *Kernels) PPCGFinishInner() { c.tick(); c.inner.PPCGFinishInner() }

// FetchField implements driver.Kernels (never faulted: it is the
// checkpoint/QA read path).
func (c *Kernels) FetchField(id driver.FieldID) []float64 { return c.inner.FetchField(id) }

// Close implements driver.Kernels.
func (c *Kernels) Close() { c.inner.Close() }

// RestoreField implements driver.FieldRestorer when the wrapped port does
// (never faulted: it is the recovery path, and faulting it would make
// rollback itself unreliable in a way no test could distinguish from a
// rollback bug).
func (c *Kernels) RestoreField(id driver.FieldID, data []float64) {
	driver.AsFieldRestorer(c.inner).RestoreField(id, data)
}

// HasFieldRestorer implements driver.CapabilityReporter.
func (c *Kernels) HasFieldRestorer() bool { return driver.AsFieldRestorer(c.inner) != nil }
