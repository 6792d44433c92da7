package perfmodel

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

// TestPredictorDegradesGracefully is the cold-start property: for any
// version string and any (possibly degenerate) deck, an empty predictor
// answers from the static model with a finite, positive number — never
// NaN, never negative, never zero.
func TestPredictorDegradesGracefully(t *testing.T) {
	p := NewPredictor()
	versions := append(CalibratedVersions(),
		"", "fleet", "no-such-version", "manual-serial")
	prop := func(vi uint8, cells, iters int32) bool {
		v := versions[int(vi)%len(versions)]
		pr := p.Predict(v, int(cells), int(iters))
		if math.IsNaN(pr.Seconds) || math.IsInf(pr.Seconds, 0) || pr.Seconds <= 0 {
			t.Logf("Predict(%q, %d, %d) = %+v", v, cells, iters, pr)
			return false
		}
		return pr.Source == SourcePrior && pr.Samples == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestPredictorObserveRejectsGarbage: corrupt samples must not poison the
// fit — they are dropped and the predictor keeps answering sanely.
func TestPredictorObserveRejectsGarbage(t *testing.T) {
	p := NewPredictor()
	for _, bad := range []struct {
		cells, iters int
		sec          float64
	}{
		{0, 10, 1}, {-5, 10, 1}, {100, 0, 1}, {100, -1, 1},
		{100, 10, 0}, {100, 10, -3}, {100, 10, math.NaN()},
		{100, 10, math.Inf(1)}, {100, 10, math.Inf(-1)},
	} {
		if p.Observe("manual-serial", bad.cells, bad.iters, bad.sec) {
			t.Errorf("Observe accepted garbage %+v", bad)
		}
	}
	pr := p.Predict("manual-serial", 576, 40)
	if pr.Source != SourcePrior || pr.Seconds <= 0 {
		t.Fatalf("post-garbage predict = %+v", pr)
	}
}

// TestPredictorFitSupersedesPrior: one observation flips the source to
// "fit" and the prediction tracks the observed rate, with nearest-bucket
// fallback for unseen sizes of the same version.
func TestPredictorFitSupersedesPrior(t *testing.T) {
	p := NewPredictor()
	const cells, iters = 24 * 24, 40
	if !p.Observe("manual-serial", cells, iters, 0.023) {
		t.Fatal("Observe rejected a valid sample")
	}
	pr := p.Predict("manual-serial", cells, iters)
	if pr.Source != SourceFit || pr.Samples != 1 {
		t.Fatalf("predict after observe = %+v", pr)
	}
	if math.Abs(pr.Seconds-0.023) > 1e-12 {
		t.Fatalf("fitted seconds = %g, want 0.023", pr.Seconds)
	}
	// A different size reuses the nearest fitted bucket, scaled by work.
	pr2 := p.Predict("manual-serial", 4*cells, iters)
	if pr2.Source != SourceFit {
		t.Fatalf("nearest-bucket predict = %+v", pr2)
	}
	if math.Abs(pr2.Seconds-4*0.023) > 1e-9 {
		t.Fatalf("scaled seconds = %g, want %g", pr2.Seconds, 4*0.023)
	}
	// Other versions stay on the prior.
	if pr3 := p.Predict("manual-omp", cells, iters); pr3.Source != SourcePrior {
		t.Fatalf("unfitted version answered %+v", pr3)
	}
}

// TestPredictorEWMAConverges: repeated observations at a steady rate pull
// the fit to that rate regardless of the first sample.
func TestPredictorEWMAConverges(t *testing.T) {
	p := NewPredictor()
	const cells, iters = 1 << 12, 50
	p.Observe("ops-mpi", cells, iters, 10.0) // outlier first sample
	for i := 0; i < 40; i++ {
		p.Observe("ops-mpi", cells, iters, 0.5)
	}
	pr := p.Predict("ops-mpi", cells, iters)
	if math.Abs(pr.Seconds-0.5) > 0.01 {
		t.Fatalf("converged seconds = %g, want ~0.5", pr.Seconds)
	}
	if pr.Samples != 41 {
		t.Fatalf("samples = %d, want 41", pr.Samples)
	}
}

func TestDeckWorkload(t *testing.T) {
	w := DeckWorkload(24, 24, 10)
	if w.N != 24 || w.Steps != 10 || w.ItersPerStep != EstimateItersPerStep(24) {
		t.Fatalf("DeckWorkload(24,24,10) = %+v", w)
	}
	// Rectangular decks square off by area; degenerate inputs clamp.
	if w := DeckWorkload(100, 1, 0); w.N < 1 || w.Steps != 1 {
		t.Fatalf("degenerate workload = %+v", w)
	}
	if w := DeckWorkload(-3, -3, 1<<30); w.N != 1 || w.Steps != 1000 {
		t.Fatalf("clamped workload = %+v", w)
	}
}

func TestPredictorLoadBench(t *testing.T) {
	dir := t.TempDir()
	port := `{"mesh": 96, "steps": 3, "host": [
	  {"version": "manual-serial", "wall_seconds": 0.04, "iterations": 120},
	  {"version": "manual-omp", "wall_seconds": 0.02, "iterations": 120},
	  {"version": "bogus", "wall_seconds": -1, "iterations": 0}
	]}`
	tiling := `{"mesh": 256, "iters": 50, "rows": [
	  {"version": "ops-serial", "untiled": {"ns_per_iter": 456976.1}},
	  {"version": "ops-openmp", "untiled": {"ns_per_iter": 500000}}
	]}`
	for name, body := range map[string]string{
		"BENCH_portability.json": port,
		"BENCH_tiling.json":      tiling,
		"BENCH_serve.json":       `{"completed": 400}`,
		"BENCH_broken.json":      `{nope`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p := NewPredictor()
	// The 2 valid host rows. BENCH_tiling.json's rows are tiling arms, not
	// the one schema the predictor reads, so they seed nothing.
	if n := p.LoadBenchDir(dir); n != 2 {
		t.Fatalf("LoadBenchDir accepted %d samples, want 2", n)
	}
	if pr := p.Predict("manual-omp", 96*96, 120); pr.Source != SourceFit {
		t.Fatalf("manual-omp after load = %+v", pr)
	}
	if pr := p.Predict("ops-openmp", 256*256, 1); pr.Source == SourceFit {
		t.Fatalf("ops-openmp fitted from a tiling row: %+v", pr)
	}
}

// TestPredictorLoadBenchRepoRoot: the committed artefacts seed the
// predictor with one sample per calibrated version, all from
// BENCH_portability.json's measured host rows.
func TestPredictorLoadBenchRepoRoot(t *testing.T) {
	p := NewPredictor()
	if n, want := p.LoadBenchDir(filepath.Join("..", "..")), len(CalibratedVersions()); n != want || want != 17 {
		t.Fatalf("LoadBenchDir on the repo root accepted %d samples, want one per calibrated version (%d of 17)", n, want)
	}
}

func TestPredictorHints(t *testing.T) {
	p := NewPredictor()
	for _, v := range CalibratedVersions() {
		h := p.Hints(v)
		if h.BatchMaxCells < 1<<10 || h.BatchMaxCells > 1<<20 {
			t.Errorf("%s: BatchMaxCells = %d out of range", v, h.BatchMaxCells)
		}
	}
	// GPU-capable versions get the paper's launch block, CPU ones none.
	if h := p.Hints("manual-cuda"); h.BlockX != 64 || h.BlockY != 8 {
		t.Errorf("manual-cuda block = %dx%d, want 64x8", h.BlockX, h.BlockY)
	}
	if h := p.Hints("manual-mpi"); h.BlockX != 0 || h.BlockY != 0 {
		t.Errorf("manual-mpi block = %dx%d, want none", h.BlockX, h.BlockY)
	}
	// manual-omp's calibration drops 0.75 -> 0.20 small-to-large on the
	// Xeon prior: a locality cliff, so the model should suggest tiling.
	if h := p.Hints("manual-omp"); !h.AutoTile {
		t.Error("manual-omp: want AutoTile hint from the degrading prior")
	}
	// A fitted flat rate (same sec/work at both anchors) suggests no tiling.
	flat := NewPredictor()
	flat.Observe("manual-omp", smallN*smallN, EstimateItersPerStep(smallN),
		1e-9*workUnits(smallN*smallN, EstimateItersPerStep(smallN)))
	flat.Observe("manual-omp", largeN*largeN, EstimateItersPerStep(largeN),
		1e-9*workUnits(largeN*largeN, EstimateItersPerStep(largeN)))
	if h := flat.Hints("manual-omp"); h.AutoTile {
		t.Error("flat fitted rate should not suggest AutoTile")
	}
}
