// Command teabench regenerates the paper's evaluation artefacts: the
// runtime bar charts of Figures 1a/1b (1000^2) and 2a/2b (4000^2), the
// implementation and machine inventories of Tables I and II, the
// performance-portability analysis of Table III, the Section IV-C system
// analysis, and two ablations (OPS cross-iteration loop-chain tiling, CUDA
// block size).
//
// Paper-scale numbers come from the calibrated machine model
// (internal/perfmodel) because the paper's Xeon/KNL/P100 are simulated
// here — see DESIGN.md. The measured, scaling, tiling, blocksize, serve and
// portability experiments run the real Go ports at a reduced mesh (-n,
// -steps), so modeled claims are backed by executable code.
//
// Usage:
//
//	teabench -experiment all            # full report (markdown-ish text)
//	teabench -experiment fig2a          # one artefact
//	teabench -experiment measured -n 192
//	teabench -experiment tiling -n 256
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
	"github.com/warwick-hpsc/tealeaf-go/internal/ops"
	"github.com/warwick-hpsc/tealeaf-go/internal/perfmodel"
	"github.com/warwick-hpsc/tealeaf-go/internal/portability"
	"github.com/warwick-hpsc/tealeaf-go/internal/registry"
	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
	"github.com/warwick-hpsc/tealeaf-go/internal/solver"

	opsport "github.com/warwick-hpsc/tealeaf-go/internal/backends/opsport"
)

func main() {
	exp := flag.String("experiment", "all", "experiment id: all, fig1a, fig1b, fig2a, fig2b, table1, table2, table3, sysanalysis, knlmodes, scaling, tiling, blocksize, measured, serve, portability")
	n := flag.Int("n", 192, "mesh edge for measured (real-execution) experiments")
	steps := flag.Int("steps", 3, "time steps for measured experiments")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON (tiling, serve and portability only)")
	tileX := flag.Int("tile-x", 0, "tile width for the tiling experiment (0: default 128)")
	tileY := flag.Int("tile-y", 0, "tile height for the tiling experiment (0: default 32)")
	tileAuto := flag.Bool("tile-auto", false, "size the explicit tiling arm from the detected cache topology instead of -tile-x/-tile-y")
	flag.Parse()

	w := os.Stdout
	switch *exp {
	case "all":
		table1(w)
		table2(w)
		figure(w, "Figure 1a — 1000^2 dataset, CPU versions (modeled seconds)", 1000, registry.CPU)
		figure(w, "Figure 1b — 1000^2 dataset, GPU versions (modeled seconds)", 1000, registry.GPU)
		figure(w, "Figure 2a — 4000^2 dataset, CPU versions (modeled seconds)", 4000, registry.CPU)
		figure(w, "Figure 2b — 4000^2 dataset, GPU versions (modeled seconds)", 4000, registry.GPU)
		table3(w)
		sysAnalysis(w)
		knlModes(w)
		measured(w, *n, *steps)
		tilingChains(w, *n, *tileX, *tileY, *tileAuto, false)
		blockSizeAblation(w, *n)
		scaling(w, *n, *steps)
	case "fig1a":
		figure(w, "Figure 1a — 1000^2 dataset, CPU versions (modeled seconds)", 1000, registry.CPU)
	case "fig1b":
		figure(w, "Figure 1b — 1000^2 dataset, GPU versions (modeled seconds)", 1000, registry.GPU)
	case "fig2a":
		figure(w, "Figure 2a — 4000^2 dataset, CPU versions (modeled seconds)", 4000, registry.CPU)
	case "fig2b":
		figure(w, "Figure 2b — 4000^2 dataset, GPU versions (modeled seconds)", 4000, registry.GPU)
	case "table1":
		table1(w)
	case "table2":
		table2(w)
	case "table3":
		table3(w)
	case "sysanalysis":
		sysAnalysis(w)
	case "knlmodes":
		knlModes(w)
	case "scaling":
		scaling(w, *n, *steps)
	case "tiling":
		tilingChains(w, *n, *tileX, *tileY, *tileAuto, *jsonOut)
	case "blocksize":
		blockSizeAblation(w, *n)
	case "measured":
		measured(w, *n, *steps)
	case "serve":
		serveBench(w, *jsonOut)
	case "portability":
		portabilityBench(w, *n, *steps, *jsonOut)
	default:
		fmt.Fprintf(os.Stderr, "teabench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// --- Table I: implementation inventory ---------------------------------------

func table1(w io.Writer) {
	fmt.Fprintf(w, "\n## Table I — TeaLeaf versions (implementation matrix)\n\n")
	fmt.Fprintf(w, "| %-18s | %-6s | %-16s | %-4s | %s |\n", "version", "group", "model", "arch", "configuration")
	fmt.Fprintf(w, "|%s|%s|%s|%s|%s|\n", dashes(20), dashes(8), dashes(18), dashes(6), dashes(40))
	for _, v := range registry.All() {
		fmt.Fprintf(w, "| %-18s | %-6s | %-16s | %-4s | %s |\n", v.Name, v.Group, v.Model, v.Arch, v.Notes)
	}
}

// --- Table II: machine inventory ---------------------------------------------

func table2(w io.Writer) {
	fmt.Fprintf(w, "\n## Table II — modeled systems\n\n")
	fmt.Fprintf(w, "| %-26s | %-9s | %-11s | %s |\n", "system", "peak GB/s", "peak GFLOPs", "key information")
	fmt.Fprintf(w, "|%s|%s|%s|%s|\n", dashes(28), dashes(11), dashes(13), dashes(60))
	for _, m := range perfmodel.Machines() {
		fmt.Fprintf(w, "| %-26s | %9.1f | %11.0f | %s |\n", m.Name, m.PeakBW, m.PeakGFLOPs, m.Info)
	}
}

// --- Figures 1 and 2 ----------------------------------------------------------

func machinesFor(arch registry.Arch) []perfmodel.Machine {
	var out []perfmodel.Machine
	for _, m := range perfmodel.Machines() {
		if (arch == registry.GPU) == m.IsGPU {
			out = append(out, m)
		}
	}
	return out
}

func figure(w io.Writer, title string, n int, arch registry.Arch) {
	fmt.Fprintf(w, "\n## %s\n\n", title)
	wl := perfmodel.BM(n)
	machines := machinesFor(arch)
	fmt.Fprintf(w, "| %-18s", "version")
	for _, m := range machines {
		fmt.Fprintf(w, " | %12s", string(m.ID))
	}
	fmt.Fprintf(w, " |\n|%s|", dashes(20))
	for range machines {
		fmt.Fprintf(w, "%s|", dashes(14))
	}
	fmt.Fprintln(w)
	for _, v := range registry.ByArch(arch) {
		fmt.Fprintf(w, "| %-18s", v.Name)
		for _, m := range machines {
			if !perfmodel.Supported(v.Name, m.ID) {
				fmt.Fprintf(w, " | %12s", "n/a")
				continue
			}
			est, err := perfmodel.Time(v.Name, m, wl)
			if err != nil {
				fmt.Fprintf(w, " | %12s", "err")
				continue
			}
			fmt.Fprintf(w, " | %12.2f", est.Seconds)
		}
		fmt.Fprintf(w, " |\n")
	}
	fmt.Fprintf(w, "\n(workload: %d steps x ~%d CG iterations/step, %.1f GB footprint)\n",
		wl.Steps, wl.ItersPerStep, wl.FootprintBytes()/1e9)
}

// --- Table III ---------------------------------------------------------------

var families = []struct {
	Name     string
	Versions []string
}{
	{"Manual", []string{"manual-omp", "manual-mpi", "manual-mpi-omp", "manual-openacc-cpu", "manual-cuda", "manual-openacc-gpu"}},
	{"OPS", []string{"ops-openmp", "ops-mpi", "ops-mpi-omp", "ops-mpi-tiled", "ops-cuda", "ops-openacc"}},
	{"Kokkos", []string{"kokkos-openmp", "kokkos-cuda"}},
	{"RAJA", []string{"raja-openmp", "raja-cuda"}},
}

// bestEstimate returns the family's fastest modeled estimate on machine m.
func bestEstimate(versions []string, m perfmodel.Machine, wl perfmodel.Workload) (perfmodel.Estimate, bool) {
	best := perfmodel.Estimate{Seconds: math.Inf(1)}
	found := false
	for _, v := range versions {
		if !perfmodel.Supported(v, m.ID) {
			continue
		}
		est, err := perfmodel.Time(v, m, wl)
		if err != nil {
			continue
		}
		if est.Seconds < best.Seconds {
			best, found = est, true
		}
	}
	return best, found
}

func table3(w io.Writer) {
	fmt.Fprintf(w, "\n## Table III — performance portability, 4000^2 mesh\n\n")
	wl := perfmodel.BM(4000)
	machines := perfmodel.Machines()

	type row struct {
		name    string
		comEff  map[perfmodel.MachineID]float64
		bwEff   map[perfmodel.MachineID]float64
		appEff  map[perfmodel.MachineID]float64
		seconds map[perfmodel.MachineID]float64
	}
	var rows []row
	bestTime := map[perfmodel.MachineID]float64{}
	for _, fam := range families {
		r := row{
			name:    fam.Name,
			comEff:  map[perfmodel.MachineID]float64{},
			bwEff:   map[perfmodel.MachineID]float64{},
			appEff:  map[perfmodel.MachineID]float64{},
			seconds: map[perfmodel.MachineID]float64{},
		}
		for _, m := range machines {
			est, ok := bestEstimate(fam.Versions, m, wl)
			if !ok {
				continue
			}
			r.comEff[m.ID] = est.ComputeEff
			r.bwEff[m.ID] = est.BWEff
			r.seconds[m.ID] = est.Seconds
			if b, ok := bestTime[m.ID]; !ok || est.Seconds < b {
				bestTime[m.ID] = est.Seconds
			}
		}
		rows = append(rows, r)
	}
	for i := range rows {
		for id, s := range rows[i].seconds {
			rows[i].appEff[id] = bestTime[id] / s
		}
	}

	fmt.Fprintf(w, "| %-7s | Xeon Com%% | Xeon BW%% | Xeon App%% | KNL Com%% | KNL BW%% | KNL App%% | P(CPU) App%% | P100 Com%% | P100 BW%% | P100 App%% | P(CPUuGPU) App%% |\n", "family")
	fmt.Fprintf(w, "|%s|%s|%s|%s|%s|%s|%s|%s|%s|%s|%s|%s|\n",
		dashes(9), dashes(11), dashes(10), dashes(11), dashes(10), dashes(9), dashes(10), dashes(13), dashes(11), dashes(10), dashes(12), dashes(17))
	for _, r := range rows {
		pCPU := portability.Pennycook([]portability.Efficiency{
			{Platform: "xeon", Value: r.appEff[perfmodel.Xeon], Supported: r.appEff[perfmodel.Xeon] > 0},
			{Platform: "knl", Value: r.appEff[perfmodel.KNL], Supported: r.appEff[perfmodel.KNL] > 0},
		})
		pAll := portability.Pennycook([]portability.Efficiency{
			{Platform: "xeon", Value: r.appEff[perfmodel.Xeon], Supported: r.appEff[perfmodel.Xeon] > 0},
			{Platform: "knl", Value: r.appEff[perfmodel.KNL], Supported: r.appEff[perfmodel.KNL] > 0},
			{Platform: "p100", Value: r.appEff[perfmodel.P100], Supported: r.appEff[perfmodel.P100] > 0},
		})
		fmt.Fprintf(w, "| %-7s | %9.2f | %8.2f | %9.2f | %8.2f | %7.2f | %8.2f | %11.2f | %9.2f | %8.2f | %10.2f | %15.2f |\n",
			r.name,
			100*r.comEff[perfmodel.Xeon], 100*r.bwEff[perfmodel.Xeon], 100*r.appEff[perfmodel.Xeon],
			100*r.comEff[perfmodel.KNL], 100*r.bwEff[perfmodel.KNL], 100*r.appEff[perfmodel.KNL],
			100*pCPU,
			100*r.comEff[perfmodel.P100], 100*r.bwEff[perfmodel.P100], 100*r.appEff[perfmodel.P100],
			100*pAll)
	}
	fmt.Fprintf(w, "\n(BW%% here is useful traffic / peak; the paper's counter-based numbers also include wasted traffic.)\n")
}

// --- Section IV-C system analysis ---------------------------------------------

func sysAnalysis(w io.Writer) {
	fmt.Fprintf(w, "\n## Section IV-C — system analysis (modeled)\n\n")
	for _, n := range []int{1000, 4000} {
		wl := perfmodel.BM(n)
		best := map[perfmodel.MachineID]float64{}
		bestV := map[perfmodel.MachineID]string{}
		for _, m := range perfmodel.Machines() {
			for _, v := range perfmodel.CalibratedVersions() {
				if v == "manual-serial" || !perfmodel.Supported(v, m.ID) {
					continue
				}
				est, err := perfmodel.Time(v, m, wl)
				if err != nil {
					continue
				}
				if b, ok := best[m.ID]; !ok || est.Seconds < b {
					best[m.ID] = est.Seconds
					bestV[m.ID] = v
				}
			}
		}
		cpuBest := math.Min(best[perfmodel.Xeon], best[perfmodel.KNL])
		gap := 100 * (cpuBest - best[perfmodel.P100]) / cpuBest
		fmt.Fprintf(w, "%d^2: footprint %.2f GB; best Xeon %.2f s (%s), best KNL %.2f s (%s), best P100 %.2f s (%s); GPU ahead of best CPU by %.2f%%\n",
			n, wl.FootprintBytes()/1e9,
			best[perfmodel.Xeon], bestV[perfmodel.Xeon],
			best[perfmodel.KNL], bestV[perfmodel.KNL],
			best[perfmodel.P100], bestV[perfmodel.P100], gap)
	}
	fmt.Fprintf(w, "(paper: GPU ahead by 3.04%% at 1000^2 and 50.57%% at 4000^2; Xeon beats KNL at 1000^2, KNL wins at 4000^2)\n")
}

// --- KNL memory-mode ablation ---------------------------------------------

// knlModes reproduces the Section IV-B claim that flat MCDRAM mode gives
// the fastest KNL runtimes: the best CPU version is modeled on the KNL in
// flat, cache and DDR-only configuration at both dataset sizes.
func knlModes(w io.Writer) {
	fmt.Fprintf(w, "\n## Ablation — KNL memory modes (modeled; the paper selected flat MCDRAM)\n\n")
	fmt.Fprintf(w, "| %-10s | %14s | %14s |\n", "mode", "1000^2 (s)", "4000^2 (s)")
	fmt.Fprintf(w, "|%s|%s|%s|\n", dashes(12), dashes(16), dashes(16))
	for _, mode := range perfmodel.KNLModes() {
		m := perfmodel.KNLWithMode(mode)
		row := fmt.Sprintf("| %-10s ", string(mode))
		for _, n := range []int{1000, 4000} {
			wl := perfmodel.BM(n)
			best := math.Inf(1)
			for _, v := range perfmodel.CalibratedVersions() {
				if v == "manual-serial" || !perfmodel.Supported(v, perfmodel.KNL) {
					continue
				}
				if est, err := perfmodel.Time(v, m, wl); err == nil && est.Seconds < best {
					best = est.Seconds
				}
			}
			row += fmt.Sprintf("| %14.2f ", best)
		}
		fmt.Fprintf(w, "%s|\n", row)
	}
	fmt.Fprintf(w, "\n(flat must be fastest at both sizes; DDR-only shows what MCDRAM buys)\n")
}

// --- strong-scaling study (the paper's future-work item) -------------------

// scaling measures the distributed versions at 1..8 ranks on this host —
// the single-node half of the paper's stated future work ("examine the
// difference between single node and distributed memory systems").
func scaling(w io.Writer, n, steps int) {
	fmt.Fprintf(w, "\n## Strong scaling — distributed versions, %d^2, %d steps (real execution)\n\n", n, steps)
	cfg := config.BenchmarkN(n)
	cfg.EndStep = steps
	fmt.Fprintf(w, "| %-10s | %12s | %12s | %12s |\n", "ranks", "manual-mpi", "ops-mpi", "speedup(mpi)")
	fmt.Fprintf(w, "|%s|%s|%s|%s|\n", dashes(12), dashes(14), dashes(14), dashes(14))
	var base time.Duration
	for _, ranks := range []int{1, 2, 4, 8} {
		times := map[string]time.Duration{}
		for _, name := range []string{"manual-mpi", "ops-mpi"} {
			v, err := registry.Get(name)
			if err != nil {
				fmt.Fprintln(w, err)
				return
			}
			k, err := v.Make(registry.Params{Ranks: ranks})
			if err != nil {
				fmt.Fprintln(w, err)
				continue
			}
			s := solver.New(solver.FromConfig(&cfg))
			start := time.Now()
			_, err = driver.Run(cfg, k, s, nil)
			d := time.Since(start)
			k.Close()
			if err != nil {
				fmt.Fprintf(w, "| %d ranks: %s error: %v |\n", ranks, name, err)
				continue
			}
			times[name] = d
		}
		if ranks == 1 {
			base = times["manual-mpi"]
		}
		speedup := 0.0
		if times["manual-mpi"] > 0 {
			speedup = float64(base) / float64(times["manual-mpi"])
		}
		fmt.Fprintf(w, "| %10d | %12s | %12s | %11.2fx |\n",
			ranks, times["manual-mpi"].Round(time.Millisecond), times["ops-mpi"].Round(time.Millisecond), speedup)
	}
}

// --- measured (real-execution) experiments ------------------------------------

func runVersion(v registry.Version, cfg config.Config) (time.Duration, driver.Result, error) {
	k, err := v.Make(registry.Params{})
	if err != nil {
		return 0, driver.Result{}, err
	}
	defer k.Close()
	s := solver.New(solver.FromConfig(&cfg))
	start := time.Now()
	res, err := driver.Run(cfg, k, s, nil)
	return time.Since(start), res, err
}

func measured(w io.Writer, n, steps int) {
	fmt.Fprintf(w, "\n## Measured — all versions at %d^2, %d steps (real Go execution on this host)\n\n", n, steps)
	cfg := config.BenchmarkN(n)
	cfg.EndStep = steps
	type result struct {
		name string
		d    time.Duration
		temp float64
	}
	var results []result
	for _, v := range registry.All() {
		d, res, err := runVersion(v, cfg)
		if err != nil {
			fmt.Fprintf(w, "| %-18s | error: %v |\n", v.Name, err)
			continue
		}
		results = append(results, result{v.Name, d, res.Final.Temperature})
	}
	sort.Slice(results, func(i, j int) bool { return results[i].d < results[j].d })
	fmt.Fprintf(w, "| %-18s | %12s | %18s |\n", "version", "wall time", "final temperature")
	fmt.Fprintf(w, "|%s|%s|%s|\n", dashes(20), dashes(14), dashes(20))
	for _, r := range results {
		fmt.Fprintf(w, "| %-18s | %12s | %18.10f |\n", r.name, r.d.Round(time.Millisecond), r.temp)
	}
	// All versions must agree on the physics.
	for _, r := range results[1:] {
		if rel := math.Abs(r.temp-results[0].temp) / math.Abs(results[0].temp); rel > 1e-6 {
			fmt.Fprintf(w, "WARNING: %s diverges from %s by %g\n", r.name, results[0].name, rel)
		}
	}
}

// --- ablations -----------------------------------------------------------------

// benchTilingJSONFile is where -json mirrors the tiling rows (repo root
// when teabench runs from there, as `make bench-tiling` does). The tiled
// sweeps_per_iter of the ops-serial row is the committed baseline that
// TestTilingSweepsGate enforces in CI.
const benchTilingJSONFile = "BENCH_tiling.json"

// tilingArm is one measurement arm (tiled or untiled) of the chain-tiling
// experiment: best-of-reps wall nanoseconds per CG iteration, and the
// full-field sweep count per iteration — chain flushes for tiled arms,
// individually executed loops for untiled ones.
type tilingArm struct {
	NsPerIter     float64 `json:"ns_per_iter"`
	SweepsPerIter float64 `json:"sweeps_per_iter"`
}

// tilingRow is one port configuration's tiled-vs-untiled comparison.
type tilingRow struct {
	Version string    `json:"version"`
	TileX   int       `json:"tile_x"`
	TileY   int       `json:"tile_y"`
	Tiled   tilingArm `json:"tiled"`
	Untiled tilingArm `json:"untiled"`
	Speedup float64   `json:"speedup"`
	Error   string    `json:"error,omitempty"`
}

// tilingReport is the BENCH_tiling.json schema (see docs/OPERATIONS.md).
type tilingReport struct {
	Mesh  int         `json:"mesh"`
	Iters int         `json:"iters"`
	Reps  int         `json:"reps"`
	Rows  []tilingRow `json:"rows"`
}

// tilingChainMeasure runs one arm: a diagonal-preconditioned CG solve
// pinned to exactly iters iterations (Eps is unreachable) on a fresh port,
// repeated reps times keeping the best wall time. Sweeps come from the
// port's TilingSnapshot delta around the solve, so setup loops are
// excluded. Returns the arm plus the resolved tile geometry (meaningful
// for tiled arms, and what TileAuto actually picked).
func tilingChainMeasure(opt opsport.Options, n, iters, reps int) (tilingArm, int, int, error) {
	cfg := config.BenchmarkN(n)
	cfg.Preconditioner = config.PrecondJacDiag
	cfg.MaxIters = iters
	cfg.Eps = 1e-300
	arm := tilingArm{NsPerIter: math.Inf(1)}
	tx, ty := 0, 0
	for r := 0; r < reps; r++ {
		p, err := opsport.New(opt)
		if err != nil {
			return tilingArm{}, 0, 0, err
		}
		m, err := grid.NewMesh(cfg.XMin, cfg.XMax, cfg.YMin, cfg.YMax, cfg.NX, cfg.NY)
		if err != nil {
			p.Close()
			return tilingArm{}, 0, 0, err
		}
		if err := p.Generate(m, cfg.States); err != nil {
			p.Close()
			return tilingArm{}, 0, 0, err
		}
		p.HaloExchange([]driver.FieldID{driver.FieldDensity, driver.FieldEnergy0}, 2)
		p.SetField()
		p.HaloExchange([]driver.FieldID{driver.FieldDensity, driver.FieldEnergy1}, 2)
		dt := cfg.InitialTimestep
		p.SolveInit(cfg.Coefficient, dt/(m.Dx*m.Dx), dt/(m.Dy*m.Dy), cfg.Preconditioner)
		pre := p.TilingSnapshot()
		start := time.Now()
		st, err := solver.Solve(p, solver.FromConfig(&cfg))
		d := time.Since(start)
		snap := p.TilingSnapshot().Sub(pre)
		p.Close()
		if err != nil {
			return tilingArm{}, 0, 0, err
		}
		if st.Iterations != iters {
			return tilingArm{}, 0, 0, fmt.Errorf("solve ran %d iterations, want %d", st.Iterations, iters)
		}
		sweeps := float64(snap.LoopsExecuted)
		if snap.Tiling {
			sweeps = float64(snap.Flushes)
		}
		arm.SweepsPerIter = sweeps / float64(iters)
		if ns := float64(d.Nanoseconds()) / float64(iters); ns < arm.NsPerIter {
			arm.NsPerIter = ns
		}
		tx, ty = snap.TileX, snap.TileY
	}
	return arm, tx, ty, nil
}

// tilingChains measures cross-iteration loop-chain tiling on the OPS port:
// with the deferred-reduction API the chains from consecutive CG iterations
// queue as one loop chain, so the tiled arm touches each field a fraction
// of the times the untiled arm does. Rows cover the serial port at an
// explicit geometry (flag-overridable), the cache-topology auto tiler, and
// the 4-rank distributed port. With jsonOut the report also lands in
// BENCH_tiling.json for the CI sweeps gate.
func tilingChains(w io.Writer, n, tileX, tileY int, tileAuto, jsonOut bool) {
	const iters, reps = 50, 3
	if tileX <= 0 {
		tileX = 128
	}
	if tileY <= 0 {
		tileY = 32
	}
	explicit := opsport.Options{Backend: ops.BackendSerial, Tiling: true, TileX: tileX, TileY: tileY, Name: "ops-tiled"}
	if tileAuto {
		explicit.TileX, explicit.TileY, explicit.TileAuto = 0, 0, true
	}
	serialRef := opsport.Options{Backend: ops.BackendSerial, Name: "ops-serial"}
	variants := []struct {
		name           string
		tiled, untiled opsport.Options
	}{
		{"ops-serial", explicit, serialRef},
		{"ops-serial-auto", opsport.Options{Backend: ops.BackendSerial, Tiling: true, TileAuto: true, Name: "ops-tiled"}, serialRef},
		{"ops-mpi-x4", opsport.Options{Backend: ops.BackendSerial, Ranks: 4, Tiling: true, TileX: tileX, TileY: tileY}, opsport.Options{Backend: ops.BackendSerial, Ranks: 4}},
	}
	rep := tilingReport{Mesh: n, Iters: iters, Reps: reps}
	for _, vr := range variants {
		row := tilingRow{Version: vr.name}
		var err error
		row.Tiled, row.TileX, row.TileY, err = tilingChainMeasure(vr.tiled, n, iters, reps)
		if err == nil {
			row.Untiled, _, _, err = tilingChainMeasure(vr.untiled, n, iters, reps)
		}
		if err != nil {
			row.Error = err.Error()
		} else if row.Tiled.NsPerIter > 0 {
			row.Speedup = row.Untiled.NsPerIter / row.Tiled.NsPerIter
		}
		rep.Rows = append(rep.Rows, row)
	}
	if jsonOut {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "teabench: %v\n", err)
			return
		}
		buf = append(buf, '\n')
		w.Write(buf)
		if err := os.WriteFile(benchTilingJSONFile, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "teabench: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "teabench: wrote %s\n", benchTilingJSONFile)
		}
		return
	}
	fmt.Fprintf(w, "\n## Cross-iteration loop-chain tiling — ns per CG iteration, %d^2, jac_diag precond (real execution, best of %d)\n\n", n, reps)
	fmt.Fprintf(w, "| %-16s | %9s | %13s | %13s | %8s | %13s | %13s |\n",
		"variant", "tile", "tiled ns/it", "untiled ns/it", "speedup", "tiled sw/it", "untiled sw/it")
	fmt.Fprintf(w, "|%s|%s|%s|%s|%s|%s|%s|\n", dashes(18), dashes(11), dashes(15), dashes(15), dashes(10), dashes(15), dashes(15))
	for _, r := range rep.Rows {
		if r.Error != "" {
			fmt.Fprintf(w, "| %-16s | error: %s |\n", r.Version, r.Error)
			continue
		}
		fmt.Fprintf(w, "| %-16s | %4dx%-4d | %13.0f | %13.0f | %7.2fx | %13.2f | %13.2f |\n",
			r.Version, r.TileX, r.TileY, r.Tiled.NsPerIter, r.Untiled.NsPerIter, r.Speedup,
			r.Tiled.SweepsPerIter, r.Untiled.SweepsPerIter)
	}
}

func blockSizeAblation(w io.Writer, n int) {
	fmt.Fprintf(w, "\n## Ablation — CUDA kernel block size (real execution, %d^2; the paper fixes 64x8)\n\n", n)
	cfg := config.BenchmarkN(n)
	cfg.EndStep = 2
	blocks := []simgpu.Dim2{{X: 8, Y: 1}, {X: 16, Y: 4}, {X: 32, Y: 4}, {X: 64, Y: 8}, {X: 128, Y: 8}, {X: 512, Y: 2}}
	fmt.Fprintf(w, "| %-10s | %12s | %10s |\n", "block", "wall time", "launches")
	fmt.Fprintf(w, "|%s|%s|%s|\n", dashes(12), dashes(14), dashes(12))
	for _, blk := range blocks {
		v, err := registry.Get("manual-cuda")
		if err != nil {
			fmt.Fprintln(w, err)
			return
		}
		k, err := v.Make(registry.Params{Block: blk})
		if err != nil {
			fmt.Fprintln(w, err)
			continue
		}
		s := solver.New(solver.FromConfig(&cfg))
		start := time.Now()
		_, err = driver.Run(cfg, k, s, nil)
		d := time.Since(start)
		type devStats interface{ Device() *simgpu.Device }
		launches := int64(0)
		if ds, ok := k.(devStats); ok {
			launches = ds.Device().Stats().Launches
		}
		k.Close()
		if err != nil {
			fmt.Fprintf(w, "| %4dx%-5d | error: %v |\n", blk.X, blk.Y, err)
			continue
		}
		fmt.Fprintf(w, "| %4dx%-5d | %12s | %10d |\n", blk.X, blk.Y, d.Round(time.Millisecond), launches)
	}
}

func dashes(n int) string { return strings.Repeat("-", n) }
