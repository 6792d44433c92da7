package opsport

import (
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/backendtest"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/ops"
	"github.com/warwick-hpsc/tealeaf-go/internal/solver"
)

func factory(t *testing.T, opt Options) backendtest.Factory {
	return func() driver.Kernels {
		p, err := New(opt)
		if err != nil {
			t.Fatalf("opsport.New: %v", err)
		}
		return p
	}
}

func TestConformanceOpenMP(t *testing.T) {
	backendtest.Conformance(t, factory(t, Options{Backend: ops.BackendOpenMP, Threads: 4}))
}

func TestConformanceSerialTiled(t *testing.T) {
	backendtest.Conformance(t, factory(t, Options{Backend: ops.BackendSerial, Tiling: true, TileX: 7, TileY: 5}))
}

func TestConformanceMPI(t *testing.T) {
	backendtest.Conformance(t, factory(t, Options{Backend: ops.BackendSerial, Ranks: 4}))
}

func TestConformanceMPIOpenMP(t *testing.T) {
	backendtest.Conformance(t, factory(t, Options{Backend: ops.BackendOpenMP, Ranks: 2, Threads: 2}))
}

func TestConformanceMPITiled(t *testing.T) {
	backendtest.Conformance(t, factory(t, Options{Backend: ops.BackendSerial, Ranks: 4, Tiling: true, TileX: 8, TileY: 8}))
}

func TestConformanceCUDA(t *testing.T) {
	backendtest.Conformance(t, factory(t, Options{Backend: ops.BackendCUDA}))
}

func TestConformanceACC(t *testing.T) {
	backendtest.Conformance(t, factory(t, Options{Backend: ops.BackendACC, Threads: 4}))
}

func TestFusionEquivalenceOpenMP(t *testing.T) {
	backendtest.FusionEquivalence(t, factory(t, Options{Backend: ops.BackendOpenMP, Threads: 4}))
}

func TestFusionEquivalenceMPI(t *testing.T) {
	backendtest.FusionEquivalence(t, factory(t, Options{Backend: ops.BackendSerial, Ranks: 4}))
}

func TestFusionEquivalenceCUDA(t *testing.T) {
	backendtest.FusionEquivalence(t, factory(t, Options{Backend: ops.BackendCUDA}))
}

// TestTiledActuallyTiles: the tiled variant must defer loops into tiles and
// still match physics (physics checked by conformance; here the stats).
func TestTiledActuallyTiles(t *testing.T) {
	cfg := config.BenchmarkN(24)
	cfg.EndStep = 1
	cfg.Solver = config.SolverPPCG // long reduction-free inner chains
	p, err := New(Options{Backend: ops.BackendSerial, Tiling: true, TileX: 8, TileY: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := driver.Run(cfg, p, solver.New(solver.FromConfig(&cfg)), nil); err != nil {
		t.Fatal(err)
	}
	st := p.TilingSnapshot()
	if st.Tiles == 0 {
		t.Error("tiled variant executed no tiles")
	}
	if st.Flushes == 0 {
		t.Error("tiled variant recorded no flushes")
	}
}

func TestRejectsMPICUDA(t *testing.T) {
	if _, err := New(Options{Backend: ops.BackendCUDA, Ranks: 2}); err == nil {
		t.Error("expected error for MPI+CUDA")
	}
}

func TestTilingEquivalenceSerial(t *testing.T) {
	backendtest.TilingEquivalence(t,
		factory(t, Options{Backend: ops.BackendSerial, Tiling: true, TileX: 7, TileY: 5}),
		factory(t, Options{Backend: ops.BackendSerial}))
}

func TestTilingEquivalenceMPI(t *testing.T) {
	backendtest.TilingEquivalence(t,
		factory(t, Options{Backend: ops.BackendSerial, Ranks: 4, Tiling: true, TileX: 8, TileY: 8}),
		factory(t, Options{Backend: ops.BackendSerial, Ranks: 4}))
}

func TestTilingEquivalenceAutoTile(t *testing.T) {
	backendtest.TilingEquivalence(t,
		factory(t, Options{Backend: ops.BackendSerial, Tiling: true, TileAuto: true}),
		factory(t, Options{Backend: ops.BackendSerial}))
}

// TestCrossIterationChains: with the deferred-reduction API and the
// trailing halo placement, a preconditioned CG solve must queue multi-loop
// chains spanning the CGCalcP -> halo(p) -> CGCalcW frontier, and the
// achieved sweeps per CG iteration (flushes/iterations) must come in under
// 3.0 — the tentpole's cache-residency claim.
func TestCrossIterationChains(t *testing.T) {
	cfg := config.BenchmarkN(32)
	cfg.EndStep = 2
	cfg.Preconditioner = config.PrecondJacDiag
	p, err := New(Options{Backend: ops.BackendSerial, Tiling: true, TileX: 16, TileY: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	res, err := driver.Run(cfg, p, solver.New(solver.FromConfig(&cfg)), nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := p.TilingSnapshot()
	if snap.Chains == 0 {
		t.Fatal("no multi-loop chains were flushed: loops are not crossing the iteration boundary")
	}
	if snap.MaxChainLen < 3 {
		t.Errorf("longest chain = %d loops, want >= 3 (cg_calc_p + halo + cg_calc_w)", snap.MaxChainLen)
	}
	if res.TotalIterations == 0 {
		t.Fatal("run recorded no iterations")
	}
	sweepsPerIter := float64(snap.Flushes) / float64(res.TotalIterations)
	if sweepsPerIter >= 3.0 {
		t.Errorf("achieved sweeps/iter = %.2f (%d flushes / %d iters), want < 3.0",
			sweepsPerIter, snap.Flushes, res.TotalIterations)
	}
	untiledPer := float64(snap.LoopsExecuted) / float64(res.TotalIterations)
	if sweepsPerIter >= untiledPer {
		t.Errorf("tiling achieved no sweep compression: %.2f tiled vs %.2f untiled", sweepsPerIter, untiledPer)
	}
}

// TestTilingSnapshotUntiled: the capability must report honestly on an
// untiled instance (counters move, Tiling false, no chains).
func TestTilingSnapshotUntiled(t *testing.T) {
	cfg := config.BenchmarkN(16)
	cfg.EndStep = 1
	p, err := New(Options{Backend: ops.BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := driver.Run(cfg, p, solver.New(solver.FromConfig(&cfg)), nil); err != nil {
		t.Fatal(err)
	}
	snap := p.TilingSnapshot()
	if snap.Tiling {
		t.Error("untiled port reports Tiling true")
	}
	if snap.LoopsExecuted == 0 {
		t.Error("no loops recorded")
	}
	if snap.Chains != 0 {
		t.Errorf("untiled port flushed %d multi-loop chains", snap.Chains)
	}
}
