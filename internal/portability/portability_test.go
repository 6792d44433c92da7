package portability

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPennycookPaperValues(t *testing.T) {
	// The paper's Table III application-efficiency rows reduce to these P
	// values (also quoted in the abstract as ~71% and ~77%).
	cases := []struct {
		name string
		effs []float64
		want float64
	}{
		{"Manual", []float64{1.0, 0.9373, 1.0}, 0.9782},
		{"OPS", []float64{0.6702, 1.0, 0.5732}, 0.7081},
		{"Kokkos", []float64{0.9145, 0.3140, 0.7265}, 0.5305},
		{"RAJA", []float64{0.8073, 0.8425, 0.6746}, 0.7677},
	}
	for _, c := range cases {
		effs := make([]Efficiency, len(c.effs))
		for i, v := range c.effs {
			effs[i] = Efficiency{Platform: "p", Value: v, Supported: true}
		}
		got := Pennycook(effs)
		if math.Abs(got-c.want) > 5e-4 {
			t.Errorf("%s: P = %.4f, want %.4f", c.name, got, c.want)
		}
	}
}

func TestPennycookZeroCases(t *testing.T) {
	if Pennycook(nil) != 0 {
		t.Error("empty set must score 0")
	}
	effs := []Efficiency{
		{Platform: "a", Value: 0.9, Supported: true},
		{Platform: "b", Supported: false},
	}
	if Pennycook(effs) != 0 {
		t.Error("an unsupported platform must force 0 (the metric's 'otherwise' branch)")
	}
	effs[1] = Efficiency{Platform: "b", Value: 0, Supported: true}
	if Pennycook(effs) != 0 {
		t.Error("a zero efficiency must force 0")
	}
}

// TestPennycookProperties (quick-check): P is the harmonic mean, so it is
// bounded by the minimum and maximum efficiency, equals the common value
// for uniform sets, and never exceeds the arithmetic mean.
func TestPennycookProperties(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 12 {
			return true
		}
		effs := make([]Efficiency, len(raw))
		lo, hi, sum := 2.0, 0.0, 0.0
		for i, r := range raw {
			v := (float64(r) + 1) / 65537 // in (0, 1)
			effs[i] = Efficiency{Platform: "p", Value: v, Supported: true}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
			sum += v
		}
		p := Pennycook(effs)
		mean := sum / float64(len(raw))
		return p >= lo-1e-12 && p <= hi+1e-12 && p <= mean+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPennycookUniform(t *testing.T) {
	effs := []Efficiency{
		{Platform: "a", Value: 0.6, Supported: true},
		{Platform: "b", Value: 0.6, Supported: true},
		{Platform: "c", Value: 0.6, Supported: true},
	}
	if got := Pennycook(effs); math.Abs(got-0.6) > 1e-15 {
		t.Errorf("uniform set: P = %g, want 0.6", got)
	}
}

func TestAppEfficiencies(t *testing.T) {
	times := map[string]map[string]float64{
		"fast":    {"m1": 10, "m2": 20},
		"slow":    {"m1": 40, "m2": 25},
		"partial": {"m1": 10},
	}
	effs := AppEfficiencies(times, []string{"m1", "m2"})
	get := func(app, platform string) Efficiency {
		for _, e := range effs[app] {
			if e.Platform == platform {
				return e
			}
		}
		t.Fatalf("missing %s/%s", app, platform)
		return Efficiency{}
	}
	if e := get("fast", "m1"); !e.Supported || e.Value != 1.0 {
		t.Errorf("fast/m1 = %+v", e)
	}
	if e := get("slow", "m1"); math.Abs(e.Value-0.25) > 1e-15 {
		t.Errorf("slow/m1 = %+v", e)
	}
	if e := get("slow", "m2"); math.Abs(e.Value-0.8) > 1e-15 {
		t.Errorf("slow/m2 = %+v", e)
	}
	if e := get("partial", "m2"); e.Supported {
		t.Errorf("partial/m2 should be unsupported, got %+v", e)
	}
	if Pennycook(effs["partial"]) != 0 {
		t.Error("partially-supported app must score 0")
	}
}
