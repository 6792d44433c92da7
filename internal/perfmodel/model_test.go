package perfmodel

import (
	"math"
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/portability"
)

func modelTimes(t *testing.T, n int) map[string]map[MachineID]float64 {
	t.Helper()
	w := BM(n)
	out := map[string]map[MachineID]float64{}
	for _, v := range CalibratedVersions() {
		out[v] = map[MachineID]float64{}
		for _, m := range Machines() {
			if est, err := Time(v, m, w); err == nil {
				out[v][m.ID] = est.Seconds
			}
		}
	}
	return out
}

func bestOn(times map[string]map[MachineID]float64, ids ...MachineID) (string, float64) {
	bestV, bestT := "", math.Inf(1)
	for v, byM := range times {
		if v == "manual-serial" {
			continue
		}
		for _, id := range ids {
			if tt, ok := byM[id]; ok && tt < bestT {
				bestV, bestT = v, tt
			}
		}
	}
	return bestV, bestT
}

// TestShapeSmallVsLarge verifies the headline system-analysis facts of
// Section IV-C: at 1000^2 the GPU barely beats the CPUs and the Xeon beats
// the KNL; at 4000^2 the GPU wins clearly and the KNL overtakes the Xeon.
func TestShapeSmallVsLarge(t *testing.T) {
	small := modelTimes(t, 1000)
	large := modelTimes(t, 4000)

	_, cpuSmall := bestOn(small, Xeon, KNL)
	_, gpuSmall := bestOn(small, P100)
	gapSmall := (cpuSmall - gpuSmall) / cpuSmall
	if gapSmall < 0 || gapSmall > 0.25 {
		t.Errorf("small-problem CPU-GPU gap = %.1f%%, want small and positive (paper: 3.04%%)", 100*gapSmall)
	}

	_, cpuLarge := bestOn(large, Xeon, KNL)
	_, gpuLarge := bestOn(large, P100)
	gapLarge := (cpuLarge - gpuLarge) / cpuLarge
	if gapLarge < 0.25 {
		t.Errorf("large-problem CPU-GPU gap = %.1f%%, want substantial (paper: 50.57%%)", 100*gapLarge)
	}
	if gapLarge <= gapSmall {
		t.Errorf("GPU advantage must grow with problem size: small %.1f%% vs large %.1f%%", 100*gapSmall, 100*gapLarge)
	}

	_, xeonSmall := bestOn(small, Xeon)
	_, knlSmall := bestOn(small, KNL)
	if xeonSmall >= knlSmall {
		t.Errorf("Xeon must beat KNL at 1000^2: %.3f vs %.3f s", xeonSmall, knlSmall)
	}
	_, xeonLarge := bestOn(large, Xeon)
	_, knlLarge := bestOn(large, KNL)
	if knlLarge >= xeonLarge {
		t.Errorf("KNL must beat Xeon at 4000^2: %.1f vs %.1f s", knlLarge, xeonLarge)
	}
}

// TestShapePerVersion checks the per-version orderings the paper narrates.
func TestShapePerVersion(t *testing.T) {
	small := modelTimes(t, 1000)
	large := modelTimes(t, 4000)

	// Kokkos OpenMP is the slowest CPU version at 1000^2 on both CPUs.
	for _, id := range []MachineID{Xeon, KNL} {
		for v, byM := range small {
			if v == "kokkos-openmp" || v == "manual-serial" {
				continue
			}
			if tt, ok := byM[id]; ok && tt > small["kokkos-openmp"][id] {
				t.Errorf("%s slower than kokkos-openmp on %s at 1000^2", v, id)
			}
		}
	}
	// Manual OpenMP at 4000^2 on the Xeon is the worst, ~3x the next.
	worst, next := 0.0, 0.0
	for v, byM := range large {
		if v == "manual-serial" {
			continue
		}
		if tt, ok := byM[Xeon]; ok {
			if tt > worst {
				worst, next = tt, worst
			} else if tt > next {
				next = tt
			}
		}
	}
	if worst != large["manual-omp"][Xeon] {
		t.Errorf("manual-omp must be worst on Xeon at 4000^2")
	}
	if ratio := worst / next; ratio < 2.0 || ratio > 4.5 {
		t.Errorf("manual-omp should be ~3x slower than the next version, ratio %.2f", ratio)
	}
	// Manual CUDA is the fastest GPU version at both sizes.
	for _, times := range []map[string]map[MachineID]float64{small, large} {
		v, _ := bestOn(times, P100)
		if v != "manual-cuda" {
			t.Errorf("manual-cuda must be the fastest GPU version, got %s", v)
		}
	}
	// Kokkos CUDA beats the other frameworks' GPU versions at both sizes.
	for _, times := range []map[string]map[MachineID]float64{small, large} {
		for _, v := range []string{"ops-cuda", "ops-openacc", "raja-cuda"} {
			if times["kokkos-cuda"][P100] >= times[v][P100] {
				t.Errorf("kokkos-cuda must beat %s on the P100", v)
			}
		}
	}
	// RAJA CUDA: slower than every OPS GPU version at 1000^2, faster than
	// all of them at 4000^2.
	for _, v := range []string{"ops-cuda", "ops-openacc"} {
		if small["raja-cuda"][P100] <= small[v][P100] {
			t.Errorf("raja-cuda must trail %s at 1000^2", v)
		}
		if large["raja-cuda"][P100] >= large[v][P100] {
			t.Errorf("raja-cuda must beat %s at 4000^2", v)
		}
	}
	// OPS MPI Tiled has the fastest 1000^2 KNL time.
	if v, _ := bestOn(small, KNL); v != "ops-mpi-tiled" {
		t.Errorf("ops-mpi-tiled must be fastest on the KNL at 1000^2, got %s", v)
	}
	// OpenACC cannot run on the KNL.
	if Supported("manual-openacc-cpu", KNL) {
		t.Error("manual-openacc-cpu must be unsupported on the KNL (PGI 17.3)")
	}
}

// groupEff reduces per-version times to per-family application
// efficiencies the way Table III does: the family's best version on each
// machine.
func groupTimes(times map[string]map[MachineID]float64, groups map[string]string) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for v, byM := range times {
		g := groups[v]
		if g == "" {
			continue
		}
		if out[g] == nil {
			out[g] = map[string]float64{}
		}
		for id, tt := range byM {
			key := string(id)
			if cur, ok := out[g][key]; !ok || tt < cur {
				out[g][key] = tt
			}
		}
	}
	return out
}

var familyOf = map[string]string{
	"manual-omp": "Manual", "manual-mpi": "Manual", "manual-mpi-omp": "Manual",
	"manual-openacc-cpu": "Manual", "manual-cuda": "Manual", "manual-openacc-gpu": "Manual",
	"ops-openmp": "OPS", "ops-mpi": "OPS", "ops-mpi-omp": "OPS", "ops-mpi-tiled": "OPS",
	"ops-cuda": "OPS", "ops-openacc": "OPS",
	"kokkos-openmp": "Kokkos", "kokkos-cuda": "Kokkos",
	"raja-openmp": "RAJA", "raja-cuda": "RAJA",
}

// TestPennycookHeadline: the modeled 4000^2 runs must land close to the
// paper's Table III application-efficiency portability scores —
// Manual 97.82%, OPS 70.81%, Kokkos 53.05%, RAJA 76.77% over CPU u GPU,
// and the abstract's "OPS and RAJA achieve 71% and 77%".
func TestPennycookHeadline(t *testing.T) {
	times := groupTimes(modelTimes(t, 4000), familyOf)
	platforms := []string{string(Xeon), string(KNL), string(P100)}
	effs := portability.AppEfficiencies(times, platforms)
	want := map[string]float64{"Manual": 0.9782, "OPS": 0.7081, "Kokkos": 0.5305, "RAJA": 0.7677}
	for g, wantP := range want {
		gotP := portability.Pennycook(effs[g])
		if math.Abs(gotP-wantP) > 0.05 {
			t.Errorf("P(CPU u GPU, app) for %s = %.4f, paper %.4f", g, gotP, wantP)
		}
	}
	// CPU-only scores (Table III column P(CPU)).
	cpuEffs := portability.AppEfficiencies(times, []string{string(Xeon), string(KNL)})
	wantCPU := map[string]float64{"Manual": 0.9676, "OPS": 0.8026, "Kokkos": 0.4674, "RAJA": 0.8245}
	for g, wantP := range wantCPU {
		gotP := portability.Pennycook(cpuEffs[g])
		if math.Abs(gotP-wantP) > 0.05 {
			t.Errorf("P(CPU, app) for %s = %.4f, paper %.4f", g, gotP, wantP)
		}
	}
}

// TestMemoryFootprint: the workload model must match the paper's stated
// footprints (~200 MB at 1000^2, ~2.5 GB at 4000^2).
func TestMemoryFootprint(t *testing.T) {
	small := BM(1000).FootprintBytes()
	if small < 100e6 || small > 300e6 {
		t.Errorf("1000^2 footprint %.0f MB, paper says ~200 MB", small/1e6)
	}
	large := BM(4000).FootprintBytes()
	if large < 1.5e9 || large > 3e9 {
		t.Errorf("4000^2 footprint %.1f GB, paper says ~2.5 GB", large/1e9)
	}
}

// TestComputeEfficiencyLow: Section V-A — TeaLeaf achieves barely 5% of
// peak compute everywhere, confirming it is bandwidth-bound.
func TestComputeEfficiencyLow(t *testing.T) {
	w := BM(4000)
	for _, v := range CalibratedVersions() {
		for _, m := range Machines() {
			if est, err := Time(v, m, w); err == nil && est.ComputeEff > 0.06 {
				t.Errorf("%s on %s: compute efficiency %.1f%% implausibly high", v, m.ID, 100*est.ComputeEff)
			}
		}
	}
}
