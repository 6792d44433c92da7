package chaos

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/serial"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/profiler"
	"github.com/warwick-hpsc/tealeaf-go/internal/solver"
)

// TestCoordinateGolden pins the coordinate system a fault spec names: the
// ordered kernels the wrapper counts in step 1 of a CG+jac_diag deck and of
// a PPCG deck, so "panic@1.N" keeps meaning the same kernel call. An
// instrumented port under the wrapper reports every kernel it runs; the
// kernel's coordinate is the wrapper's call counter as it runs.
func TestCoordinateGolden(t *testing.T) {
	var got []string
	for _, d := range []struct {
		name    string
		solver  config.SolverKind
		precond config.Preconditioner
	}{
		{"cg-jac_diag", config.SolverCG, config.PrecondJacDiag},
		{"ppcg", config.SolverPPCG, config.PrecondNone},
	} {
		cfg := config.BenchmarkN(16)
		cfg.EndStep = 1
		cfg.InitialTimestep = 2.0
		cfg.EigenCGIters = 5
		cfg.Solver, cfg.Preconditioner = d.solver, d.precond
		prof := profiler.New()
		k := serial.New()
		c := Wrap(driver.Instrument(k, prof), nil)
		last := 0
		prof.SetSpanObserver(func(name string, _ time.Time, _ time.Duration) {
			if c.step != 1 || c.call == last {
				return // before step 1, or a kernel the wrapper does not count
			}
			if c.call != last+1 {
				t.Errorf("%s: counter jumped from %d to %d at %s", d.name, last, c.call, name)
			}
			last = c.call
			got = append(got, fmt.Sprintf("%s 1.%d %s", d.name, c.call, name))
		})
		if _, err := driver.Run(cfg, c, solver.New(solver.FromConfig(&cfg)), nil); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		k.Close()
	}
	want, err := os.ReadFile("testdata/coordinates_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if g := strings.Join(got, "\n") + "\n"; g != string(want) {
		t.Errorf("step-1 coordinates differ from testdata/coordinates_golden.txt; got:\n%s", g)
	}
}

// TestPoisonSetGolden pins which kernels' results a nan fault corrupts:
// every reduction the solver's convergence and breakdown guards read, and
// not the QA field summary. Each value-returning kernel runs as call 1 of a
// step under "nan@1.1" on a fresh wrapper.
func TestPoisonSetGolden(t *testing.T) {
	kt := reflect.TypeOf((*driver.Kernels)(nil)).Elem()
	totals := reflect.TypeOf(driver.Totals{})
	var poisoned []string
	for i := 0; i < kt.NumMethod(); i++ {
		m := kt.Method(i)
		if m.Type.NumOut() != 1 {
			continue
		}
		out := m.Type.Out(0)
		if out.Kind() != reflect.Float64 && out != totals {
			continue
		}
		var args []reflect.Value
		for a := 0; a < m.Type.NumIn(); a++ {
			switch m.Type.In(a).Kind() {
			case reflect.Float64:
				args = append(args, reflect.ValueOf(0.5))
			case reflect.Bool:
				args = append(args, reflect.ValueOf(true))
			default:
				t.Fatalf("%s takes a %s; the test only supplies float64 and bool", m.Name, m.Type.In(a))
			}
		}
		hasNaN := func(c *Kernels) bool {
			c.SetField()
			v := reflect.ValueOf(driver.Kernels(c)).MethodByName(m.Name).Call(args)[0]
			if v.Kind() == reflect.Float64 {
				return math.IsNaN(v.Float())
			}
			tot := v.Interface().(driver.Totals)
			return math.IsNaN(tot.Volume) || math.IsNaN(tot.Mass) ||
				math.IsNaN(tot.InternalEnergy) || math.IsNaN(tot.Temperature)
		}
		if hasNaN(Wrap(newSerial(t), nil)) {
			t.Fatalf("%s returns NaN without a fault", m.Name)
		}
		if hasNaN(Wrap(newSerial(t), []Fault{{KindNaN, 1, 1}})) {
			poisoned = append(poisoned, m.Name)
		}
	}
	sort.Strings(poisoned)
	want := []string{"CGCalcUR", "CGCalcW", "CGInitP", "DotRZ", "JacobiIterate", "Norm2R"}
	if !reflect.DeepEqual(poisoned, want) {
		t.Errorf("nan poisons %v, want %v", poisoned, want)
	}
}
