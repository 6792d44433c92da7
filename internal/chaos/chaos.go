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
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
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
// the wrapped port through a driver.Forwarder and fires each scheduled
// fault exactly once.
type Kernels struct {
	driver.Forwarder
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
	c := &Kernels{inner: port, faults: faults}
	c.Forwarder = driver.Forward(c.intercept)
	return c
}

// Fired reports how many scheduled faults have fired, so tests can assert
// the schedule actually hit.
func (c *Kernels) Fired() int { return c.fired }

// Name implements driver.Kernels.
func (c *Kernels) Name() string { return c.inner.Name() + "+chaos" }

// Close implements driver.Kernels.
func (c *Kernels) Close() { c.inner.Close() }

// intercept counts and faults every kernel call except three. Generate runs
// before any step; FetchField and RestoreField are the checkpoint and
// recovery paths, and faulting them would make rollback itself unreliable in
// a way no test could distinguish from a rollback bug. SetField starts a new
// step execution. A nan or flipred fault armed by tick corrupts the next
// result the kernel table marks poisonable.
func (c *Kernels) intercept(call *driver.Call) {
	switch call.ID {
	case driver.KGenerate, driver.KFetchField, driver.KRestoreField:
	case driver.KSetField:
		c.step++
		c.call = 0
		c.armNaN = false // un-fired poison does not leak across attempts
		c.armFlip = false
	default:
		c.tick()
	}
	call.Apply(c.inner)
	if !call.ID.Desc().Poisonable {
		return
	}
	if c.armNaN {
		c.armNaN = false
		call.Value = math.NaN()
	} else if c.armFlip {
		c.armFlip = false
		call.Value = comm.FlipBits(call.Value, 63)
	}
}

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
	u := c.inner.FetchField(driver.FieldU)
	if len(u) == 0 {
		panic(fmt.Errorf("%w: flip fault fired before u exists", ErrInjected))
	}
	mid := len(u) / 2
	u[mid] = comm.FlipBits(u[mid], comm.DefaultFlipBit)
	c.inner.RestoreField(driver.FieldU, u)
}
