package chaos

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/serial"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
)

func TestParseSpec(t *testing.T) {
	faults, err := ParseSpec("panic@2.1;nan@3.4")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{{KindPanic, 2, 1}, {KindNaN, 3, 4}}
	if len(faults) != 2 || faults[0] != want[0] || faults[1] != want[1] {
		t.Fatalf("faults = %+v, want %+v", faults, want)
	}
	for _, bad := range []string{"", "panic", "panic@2", "explode@1.1", "panic@0.1", "nan@1.x"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted an invalid spec", bad)
		}
	}
}

func newSerial(t *testing.T) *serial.Chunk {
	t.Helper()
	k := serial.New()
	t.Cleanup(k.Close)
	cfg := config.BenchmarkN(12)
	m, err := grid.NewMesh(cfg.XMin, cfg.XMax, cfg.YMin, cfg.YMax, cfg.NX, cfg.NY)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Generate(m, cfg.States); err != nil {
		t.Fatal(err)
	}
	return k
}

// TestPanicFaultFiresOnce: the scheduled panic fires at its exact
// coordinate, exactly once — a replay of the same coordinate is clean.
func TestPanicFaultFiresOnce(t *testing.T) {
	c := Wrap(newSerial(t), []Fault{{KindPanic, 1, 2}})
	c.SetField()
	c.CalcResidual() // call 1
	func() {
		defer func() {
			p := recover()
			if p == nil {
				t.Fatal("scheduled panic did not fire")
			}
			if err, ok := p.(error); !ok || !errors.Is(err, ErrInjected) {
				t.Fatalf("panic payload %v does not wrap ErrInjected", p)
			}
		}()
		c.Norm2R() // call 2 — boom
	}()
	if c.Fired() != 1 {
		t.Fatalf("fired = %d, want 1", c.Fired())
	}
	// Replay the same step coordinate: nothing fires the second time.
	c.SetField()
	c.CalcResidual()
	c.Norm2R()
	if c.Fired() != 1 {
		t.Errorf("fault re-fired on replay: fired = %d", c.Fired())
	}
}

// TestNaNFaultPoisonsReduction: the NaN fault corrupts only the reported
// scalar — the port's state is untouched, so the next call sees true data.
func TestNaNFaultPoisonsReduction(t *testing.T) {
	c := Wrap(newSerial(t), []Fault{{KindNaN, 1, 1}})
	clean := Wrap(newSerial(t), nil)
	c.SetField()
	clean.SetField()
	if v := c.Norm2R(); !math.IsNaN(v) {
		t.Fatalf("poisoned Norm2R = %v, want NaN", v)
	}
	got, want := c.Norm2R(), clean.Norm2R()
	if got != want || math.IsNaN(got) {
		t.Fatalf("post-poison Norm2R = %v, want the clean value %v (state must be untouched)", got, want)
	}
}

// TestNaNArmDoesNotLeakAcrossSteps: poison armed on a non-reduction call
// late in a step must not carry into the next step attempt.
func TestNaNArmDoesNotLeakAcrossSteps(t *testing.T) {
	c := Wrap(newSerial(t), []Fault{{KindNaN, 1, 1}})
	c.SetField()
	c.CalcResidual() // call 1 arms the poison but returns nothing
	c.SetField()     // new step attempt clears the arm
	if v := c.Norm2R(); math.IsNaN(v) {
		t.Error("armed poison leaked into the next step")
	}
}

// tilingPort is a port that reports tiling statistics.
type tilingPort struct{ driver.Kernels }

func (tilingPort) TilingSnapshot() driver.TilingSnapshot { return driver.TilingSnapshot{} }

// TestCapabilityForwarding: the wrapper forwards the kernels and nothing
// else; tiling statistics are read from the raw port.
func TestCapabilityForwarding(t *testing.T) {
	port := tilingPort{newSerial(t)}
	if driver.AsTilingReporter(port) == nil {
		t.Fatal("test port reports no tiling statistics")
	}
	if driver.AsTilingReporter(Wrap(port, nil)) != nil {
		t.Error("wrapper forwards the port's tiling statistics")
	}
}

// TestRestoreFieldRoundTripThroughWrapper: restore through the wrapper hits
// the real port.
func TestRestoreFieldRoundTripThroughWrapper(t *testing.T) {
	c := Wrap(newSerial(t), nil)
	orig := c.FetchField(driver.FieldEnergy0)
	patch := make([]float64, len(orig))
	for i := range patch {
		patch[i] = float64(i)
	}
	c.RestoreField(driver.FieldEnergy0, patch)
	got := c.FetchField(driver.FieldEnergy0)
	for i := range got {
		if got[i] != patch[i] {
			t.Fatalf("cell %d = %v after restore, want %v", i, got[i], patch[i])
		}
	}
}

// FuzzParseSpec: the schedule parser never panics, and every spec it
// accepts, re-formatted as kind@step.call clauses, parses back to the same
// faults.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"panic@2.1;nan@3.4", "flip@1.1", " flipred@10.20 ; nan@1.1", "panic@+3.07",
		"", ";", "panic", "panic@2", "explode@1.1", "panic@0.1", "nan@1.x", "nan@1.1;",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		faults, err := ParseSpec(spec)
		if err != nil {
			return
		}
		clauses := make([]string, len(faults))
		for i, ft := range faults {
			clauses[i] = fmt.Sprintf("%s@%d.%d", ft.Kind, ft.Step, ft.Call)
		}
		again, err := ParseSpec(strings.Join(clauses, ";"))
		if err != nil {
			t.Fatalf("%q parsed to %+v, whose formatting %q fails: %v", spec, faults, strings.Join(clauses, ";"), err)
		}
		if !reflect.DeepEqual(again, faults) {
			t.Fatalf("%q parsed to %+v, its formatting to %+v", spec, faults, again)
		}
	})
}
