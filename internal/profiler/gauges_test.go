package profiler

import (
	"strings"
	"testing"
)

func TestGauges(t *testing.T) {
	p := New()
	if gs := p.Gauges(); len(gs) != 0 {
		t.Fatalf("fresh profile has %d gauges", len(gs))
	}
	p.SetGauge("ops_tiles", 42)
	p.SetGauge("ops_sweeps_per_iter_tiled", 2.25)
	p.SetGauge("ops_tiles", 48) // overwrite, not accumulate
	gs := p.Gauges()
	if len(gs) != 2 {
		t.Fatalf("got %d gauges, want 2", len(gs))
	}
	if gs[0].Name != "ops_sweeps_per_iter_tiled" || gs[0].Value != 2.25 {
		t.Errorf("gauge[0] = %+v, want sorted sweeps gauge first", gs[0])
	}
	if gs[1].Name != "ops_tiles" || gs[1].Value != 48 {
		t.Errorf("gauge[1] = %+v, want overwritten ops_tiles=48", gs[1])
	}
	var b strings.Builder
	p.Report(&b)
	out := b.String()
	for _, want := range []string{"-- gauges --", "ops_tiles", "2.25"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestReportWithoutGauges(t *testing.T) {
	p := New()
	p.ObserveSweeps("k", 1000, 8, 8, 0)
	var b strings.Builder
	p.Report(&b)
	if strings.Contains(b.String(), "gauges") {
		t.Error("gauge section printed for a profile with no gauges")
	}
}
