package driver

import (
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
	"github.com/warwick-hpsc/tealeaf-go/internal/profiler"
)

func TestInstrumentRecordsKernels(t *testing.T) {
	cfg := config.BenchmarkN(8)
	cfg.EndStep = 2
	cfg.SummaryFrequency = 1
	prof := profiler.New()
	k := Instrument(&stubKernels{}, prof)
	if _, err := Run(cfg, k, stubSolver(), nil); err != nil {
		t.Fatal(err)
	}
	byName := map[string]profiler.Entry{}
	for _, e := range prof.Entries() {
		byName[e.Name] = e
	}
	for _, name := range []string{"generate_chunk", "set_field", "update_halo",
		"tea_leaf_init", "tea_leaf_finalise", "reset_field", "field_summary"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("kernel %q not recorded; have %v", name, keys(byName))
		}
	}
	if byName["set_field"].Calls != 2 {
		t.Errorf("set_field calls = %d, want 2", byName["set_field"].Calls)
	}
	// Traffic attribution must scale with the mesh: an 8x8 interior with
	// halo 2 has (8+4)^2 = 144 padded cells; set_field touches two fields.
	if got, want := byName["set_field"].Bytes, int64(2*2*8*144); got != want {
		t.Errorf("set_field bytes = %d, want %d", got, want)
	}
	if _, bytes, _ := prof.Totals(); bytes == 0 {
		t.Error("no traffic recorded")
	}
}

func TestInstrumentPassesValuesThrough(t *testing.T) {
	prof := profiler.New()
	stub := &stubKernels{}
	k := Instrument(stub, prof)
	cfg := config.BenchmarkN(8)
	m := mustMesh(t, cfg)
	if err := k.Generate(m, cfg.States); err != nil {
		t.Fatal(err)
	}
	if got := k.FieldSummary(); got.Temperature != 4 {
		t.Errorf("FieldSummary not forwarded: %+v", got)
	}
	if got := k.CGCalcW(); got != 1 {
		t.Errorf("CGCalcW not forwarded: %g", got)
	}
}

func mustMesh(t *testing.T, cfg config.Config) *grid.Mesh {
	t.Helper()
	m, err := grid.NewMesh(cfg.XMin, cfg.XMax, cfg.YMin, cfg.YMax, cfg.NX, cfg.NY)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func keys(m map[string]profiler.Entry) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
