package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/warwick-hpsc/tealeaf-go/internal/config"
)

func TestPercentileArithmetic(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7} // sorted: 1 3 5 7 9
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 3}, {0.5, 5}, {0.75, 7}, {0.9, 8.2}, {1, 9},
	} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 2}); got != 3 {
		t.Errorf("median of an even sample = %v, want 3", got)
	}
	if q1, q3 := quartiles(xs); q1 != 3 || q3 != 7 {
		t.Errorf("quartiles = %v, %v, want 3, 7", q1, q3)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples must be NaN, so that report refuses it")
	}
	if xs[0] != 9 {
		t.Error("percentile reordered its argument")
	}
	if got := relDiff(2, 2.1); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("relDiff(2, 2.1) = %v, want 0.05", got)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "run", start: 0, end: 100 * ms, parent: -1},
		{name: "cg_calc_w", start: 10 * ms, end: 40 * ms, parent: 0},
		{name: "cg_calc_ur", start: 40 * ms, end: 60 * ms, parent: 0},
		{name: "job", start: 0, end: 30 * ms, parent: -1},
		{name: "submit_ack", start: 0, end: 5 * ms, parent: 3},
		{name: "ack_done", start: 5 * ms, end: 30 * ms, parent: 3},
	}
	want := []time.Duration{50 * ms, 30 * ms, 20 * ms, 0, 5 * ms, 25 * ms}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].name, got, want[i])
		}
	}
}

// jobsOf draws n submissions of a workload's own traffic.
func jobsOf(w workload, seed int64, n int) (decks []config.Config, jobs []jobReq) {
	g := newDeckGen(seed)
	decks = w.decks(g)
	var hot []config.Config
	if w.serve.hot != nil {
		hot = w.serve.hot(g)
	}
	for i := 0; i < n; i++ {
		jobs = append(jobs, w.serve.next(g, i, hot))
	}
	for i := 0; i < 8; i++ {
		jobs = append(jobs, fillerJob(g))
	}
	return decks, jobs
}

func TestDeckGeneratorIsSeeded(t *testing.T) {
	for _, w := range workloads {
		decksA, jobsA := jobsOf(w, 7, 400)
		decksB, jobsB := jobsOf(w, 7, 400)
		decksC, _ := jobsOf(w, 8, 1)
		for i := range decksA {
			if decksA[i].Summary() != decksB[i].Summary() {
				t.Errorf("%s: deck %d differs between two runs of one seed", w.name, i)
			}
			if decksA[i].Summary() == decksC[i].Summary() {
				t.Errorf("%s: deck %d is the same for two seeds", w.name, i)
			}
			if e0, e := config.BenchmarkN(16).States[1].Energy, decksA[i].States[1].Energy; math.Abs(e/e0-1) >= 0.01 {
				t.Errorf("%s: seed moved state 2's energy by %.3g, want under 1 %%", w.name, e/e0-1)
			}
			if err := decksA[i].Validate(); err != nil {
				t.Errorf("%s: deck %d: %v", w.name, i, err)
			}
		}
		seen := map[string]int{}
		for i, j := range jobsA {
			if a, b := j.spec, jobsB[i].spec; a.Deck != b.Deck || a.Version != b.Version || a.Priority != b.Priority || j.hot != jobsB[i].hot {
				t.Fatalf("%s: job %d differs between two runs of one seed", w.name, i)
			}
			cfg, err := config.ParseReader(strings.NewReader(j.spec.Deck))
			if err != nil {
				t.Fatalf("%s: job %d does not parse: %v", w.name, i, err)
			}
			if j.hot >= 0 {
				continue
			}
			h := cfg.CanonicalHash()
			if prev, dup := seen[h]; dup {
				t.Fatalf("%s: unique jobs %d and %d share a config hash", w.name, prev, i)
			}
			seen[h] = i
		}
	}
}

// TestBenchmarkJSONMatchesCatalog holds BENCHMARK.json to what the harness
// prints: report prints exactly the catalog's names, or fails.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bm struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	compare := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		want := map[string]string{}
		for _, d := range defs {
			want[d.name] = d.unit
		}
		for _, m := range listed {
			unit, ok := want[m.Name]
			switch {
			case !nameRE.MatchString(m.Name):
				t.Errorf("%s %q is not a valid metric name", kind, m.Name)
			case !ok:
				t.Errorf("%s %q is listed twice or is not printed by the harness", kind, m.Name)
			case unit != m.Unit:
				t.Errorf("%s %s: unit %q listed, %q printed", kind, m.Name, m.Unit, unit)
			case m.Better != "lower" && m.Better != "higher":
				t.Errorf("%s %s: better = %q", kind, m.Name, m.Better)
			case bounded && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s %s: needs a bound in (0, 0.25]", kind, m.Name)
			case !bounded && m.Bound != nil:
				t.Errorf("%s %s: a per-layer metric carries no bound", kind, m.Name)
			}
			delete(want, m.Name)
		}
		for name := range want {
			t.Errorf("%s %s is printed by the harness and not listed", kind, name)
		}
	}
	compare("end_to_end", bm.EndToEnd, endToEndDefs, true)
	compare("per_layer", bm.PerLayer, perLayerDefs(), false)
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d listed as %q, defined as %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bm.Paths) != 1 || bm.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bm.Paths)
	}
	if bm.RunSeconds < 1 || bm.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", bm.RunSeconds)
	}
}
