package registry

import (
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/cuda"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/serial"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/solver"
)

func TestNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, v := range All() {
		if seen[v.Name] {
			t.Errorf("duplicate version name %q", v.Name)
		}
		seen[v.Name] = true
		if v.Group == "" || v.Model == "" || v.Notes == "" || v.Make == nil {
			t.Errorf("version %q has missing metadata", v.Name)
		}
	}
}

func TestStudyMatrixShape(t *testing.T) {
	// The paper's figures chart 10 CPU versions and 6 GPU versions.
	if got := len(ByArch(CPU)); got != 10 {
		t.Errorf("CPU versions = %d, want 10", got)
	}
	if got := len(ByArch(GPU)); got != 6 {
		t.Errorf("GPU versions = %d, want 6", got)
	}
	// The four implementation families of Table III, and only those.
	groups := map[string]bool{"Manual": false, "OPS": false, "Kokkos": false, "RAJA": false}
	for _, v := range All() {
		if _, ok := groups[v.Group]; !ok {
			t.Errorf("version %q is in unknown group %q", v.Name, v.Group)
		}
		groups[v.Group] = true
	}
	for g, seen := range groups {
		if !seen {
			t.Errorf("group %q has no version", g)
		}
	}
}

func TestGet(t *testing.T) {
	v, err := Get("ops-mpi-tiled")
	if err != nil || v.Model != "MPI Tiled" {
		t.Errorf("Get(ops-mpi-tiled) = %+v, %v", v, err)
	}
	if _, err := Get("vulkan-compute"); err == nil {
		t.Error("expected error for unknown version")
	}
}

// TestEveryVersionRunsAndAgrees constructs all seventeen versions through
// the registry exactly as the benchmarks do and verifies the physics
// against the serial reference.
func TestEveryVersionRunsAndAgrees(t *testing.T) {
	cfg := config.BenchmarkN(16)
	cfg.EndStep = 2
	ref := serial.New()
	want, err := driver.Run(cfg, ref, solver.New(solver.FromConfig(&cfg)), nil)
	ref.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range All() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			k, err := v.Make(Params{Threads: 2, Ranks: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer k.Close()
			got, err := driver.Run(cfg, k, solver.New(solver.FromConfig(&cfg)), nil)
			if err != nil {
				t.Fatal(err)
			}
			if d := driver.CompareTotals(want.Final, got.Final); d > 1e-8 {
				t.Errorf("diverges from serial by %g", d)
			}
		})
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.Threads < 1 || p.Ranks != 4 {
		t.Errorf("defaults = %+v", p)
	}
	p = Params{Threads: 3, Ranks: 9}.withDefaults()
	if p.Threads != 3 || p.Ranks != 9 {
		t.Errorf("explicit params clobbered: %+v", p)
	}
}

// TestDeviceThreads: a device version's simulated device runs its blocks on
// Params.Threads threads, as the host versions' teams do.
func TestDeviceThreads(t *testing.T) {
	v, err := Get("manual-cuda")
	if err != nil {
		t.Fatal(err)
	}
	k, err := v.Make(Params{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	if got := k.(*cuda.Chunk).Device().Props().Parallelism; got != 2 {
		t.Errorf("manual-cuda device parallelism = %d, want 2", got)
	}
}

func TestArchString(t *testing.T) {
	if CPU.String() != "CPU" || GPU.String() != "GPU" {
		t.Error("arch stringers wrong")
	}
}

// TestTiledVersionMatchesUntiledExactly: the registry's ops-mpi-tiled and
// ops-mpi rows differ only in the tiling pass, and the deferred-reduction
// execution layer makes that pass bitwise invisible — 1e-12 on the QA
// totals, far tighter than the cross-port conformance bar.
func TestTiledVersionMatchesUntiledExactly(t *testing.T) {
	cfg := config.BenchmarkN(16)
	cfg.EndStep = 2
	cfg.Preconditioner = config.PrecondJacDiag
	run := func(name string, p Params) driver.Totals {
		v, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		k, err := v.Make(p)
		if err != nil {
			t.Fatal(err)
		}
		defer k.Close()
		res, err := driver.Run(cfg, k, solver.New(solver.FromConfig(&cfg)), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res.Final
	}
	params := Params{Ranks: 2, TileX: 8, TileY: 8}
	want := run("ops-mpi", params)
	for _, p := range []Params{params, {Ranks: 2, TileAuto: true}} {
		got := run("ops-mpi-tiled", p)
		d, err := driver.CompareTotalsChecked(want, got)
		if err != nil {
			t.Fatal(err)
		}
		if d > 1e-12 {
			t.Errorf("ops-mpi-tiled (%+v) diverges from ops-mpi by %g", p, d)
		}
	}
}
