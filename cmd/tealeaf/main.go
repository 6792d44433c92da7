// Command tealeaf runs the heat-conduction mini-app: it reads a tea.in
// deck (or one of the built-in tea_bm benchmarks), selects one of the
// seventeen TeaLeaf versions from the registry and runs the time-marching
// loop, printing the per-step solver log and the QA field summary exactly
// like the original mini-app driver.
//
// Examples:
//
//	tealeaf -benchmark bm_250 -version manual-omp -threads 8
//	tealeaf -in tea.in -version ops-mpi-tiled -ranks 4
//	tealeaf -benchmark bm_500 -version manual-cuda -blockx 64 -blocky 8 -profile
//	tealeaf -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/serial"
	"github.com/warwick-hpsc/tealeaf-go/internal/chaos"
	"github.com/warwick-hpsc/tealeaf-go/internal/comm"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
	"github.com/warwick-hpsc/tealeaf-go/internal/obs"
	"github.com/warwick-hpsc/tealeaf-go/internal/profiler"
	"github.com/warwick-hpsc/tealeaf-go/internal/registry"
	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
	"github.com/warwick-hpsc/tealeaf-go/internal/solver"
	"github.com/warwick-hpsc/tealeaf-go/internal/vis"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tealeaf:", err)
		os.Exit(1)
	}
}

// writeTrace dumps the tracer's spans to path as trace-event JSON.
func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// solverKind maps a tea.in solver keyword to its SolverKind, for -fallback.
func solverKind(name string) (config.SolverKind, error) {
	switch name {
	case "cg":
		return config.SolverCG, nil
	case "jacobi":
		return config.SolverJacobi, nil
	case "chebyshev":
		return config.SolverChebyshev, nil
	case "ppcg":
		return config.SolverPPCG, nil
	default:
		return 0, fmt.Errorf("unknown fallback solver %q (want cg, jacobi, chebyshev or ppcg)", name)
	}
}

func run() error {
	var (
		inPath    = flag.String("in", "", "path to a tea.in input deck")
		benchmark = flag.String("benchmark", "", "built-in benchmark deck (e.g. bm_250); see -list")
		version   = flag.String("version", "manual-serial", "TeaLeaf version to run; see -list")
		threads   = flag.Int("threads", 0, "threads per process/team (0: all cores)")
		ranks     = flag.Int("ranks", 0, "ranks for distributed versions (0: 4)")
		blockX    = flag.Int("blockx", 0, "GPU kernel block width (0: version default)")
		blockY    = flag.Int("blocky", 0, "GPU kernel block height")
		tileX     = flag.Int("tile-x", 0, "OPS tile width in cells (0: default)")
		tileY     = flag.Int("tile-y", 0, "OPS tile height in cells")
		tileAuto  = flag.Bool("tile-auto", false, "derive OPS tile extents from the detected cache topology (explicit -tile-x/-tile-y win)")
		profile   = flag.Bool("profile", false, "print the per-kernel profile after the run")
		traceOut  = flag.String("trace-out", "", "write per-kernel spans as Chrome trace-event JSON (chrome://tracing) to this file")
		qa        = flag.Bool("qa", false, "verify the result against the serial reference")
		visit     = flag.String("visit", "", "write the final density/energy/temperature fields to this .vtk file")
		list      = flag.Bool("list", false, "list versions and benchmark decks, then exit")
		dump      = flag.Bool("dump-config", false, "print the resolved configuration, then exit")

		ckEvery    = flag.Int("checkpoint-every", 0, "steps between recovery checkpoints (0: resilience off)")
		ckFile     = flag.String("checkpoint-file", "", "mirror checkpoints to this file (CRC-validated)")
		resume     = flag.Bool("resume", false, "resume from -checkpoint-file if it exists")
		maxRetries = flag.Int("max-retries", 3, "consecutive failed step attempts before giving up")
		faultSpec  = flag.String("fault-spec", "", "inject kernel faults, e.g. \"panic@2.5;flip@3.7\" (kind@step.call)")
		fallback   = flag.String("fallback", "", "comma-separated solver fallback chain on breakdown, e.g. \"jacobi\"")
		deadline   = flag.Duration("deadline", 0, "wall-clock budget; on expiry the run stops promptly with its partial result (0: none)")
		sdcEvery   = flag.Int("sdc-check-every", 0, fmt.Sprintf("CG iterations between ABFT true-residual checks (0: off; %d is the recommended cadence)", solver.DefaultSDCCheckEvery))
		commSums   = flag.Bool("comm-checksums", false, "CRC-32C checksum every comm payload of message-passing versions; corruption is repaired or escalated")
	)
	flag.Parse()

	if *list {
		fmt.Println("versions:")
		for _, v := range registry.All() {
			fmt.Printf("  %-20s %-7s %-16s %s\n", v.Name, v.Group, v.Model, v.Notes)
		}
		fmt.Println("benchmarks:")
		for _, b := range config.BenchmarkNames() {
			fmt.Printf("  %s\n", b)
		}
		return nil
	}

	var cfg config.Config
	var err error
	switch {
	case *inPath != "" && *benchmark != "":
		return fmt.Errorf("-in and -benchmark are mutually exclusive")
	case *inPath != "":
		cfg, err = config.ParseFile(*inPath)
	case *benchmark != "":
		cfg, err = config.Benchmark(*benchmark)
	default:
		cfg, err = config.Benchmark("bm_250")
	}
	if err != nil {
		return err
	}
	if *dump {
		fmt.Print(cfg.Summary())
		return nil
	}

	v, err := registry.Get(*version)
	if err != nil {
		return err
	}
	params := registry.Params{
		Threads:  *threads,
		Ranks:    *ranks,
		Block:    simgpu.Dim2{X: *blockX, Y: *blockY},
		TileX:    *tileX,
		TileY:    *tileY,
		TileAuto: *tileAuto,
	}
	k, err := v.Make(params)
	if err != nil {
		return err
	}
	defer k.Close()

	world, _ := any(k).(interface{ World() *comm.World })
	if *commSums {
		if world == nil {
			return fmt.Errorf("-comm-checksums: version %s has no communication world", v.Name)
		}
		world.World().SetChecksums(true)
	}

	var kernels driver.Kernels = k
	var prof *profiler.Profile
	var tracer *obs.Tracer
	if *profile || *traceOut != "" {
		prof = profiler.New()
		kernels = driver.Instrument(k, prof)
	}
	if *traceOut != "" {
		tracer = obs.NewTracer(0)
		prof.SetSpanObserver(tracer.Observer("kernel", 1))
	}
	var injected *chaos.Kernels
	if *faultSpec != "" {
		if *ckEvery <= 0 {
			return fmt.Errorf("-fault-spec needs -checkpoint-every N: without checkpoints an injected fault just crashes the run")
		}
		faults, err := chaos.ParseSpec(*faultSpec)
		if err != nil {
			return err
		}
		injected = chaos.Wrap(kernels, faults)
		kernels = injected
	}

	opt := solver.FromConfig(&cfg)
	opt.SDCCheckEvery = *sdcEvery
	if *fallback != "" {
		for _, name := range strings.Split(*fallback, ",") {
			kind, err := solverKind(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			opt.Fallback = append(opt.Fallback, kind)
		}
		// A degradation chain implies restart-from-iterate is wanted too.
		opt.MaxRestarts = 1
	}
	pol := driver.RecoveryPolicy{
		CheckpointEvery: *ckEvery,
		MaxRetries:      *maxRetries,
		CheckpointPath:  *ckFile,
		Resume:          *resume,
	}

	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
		if world != nil {
			// The budget also bounds every collective, so a rank hung in a
			// barrier cannot outlive the deadline.
			world.World().SetCollectiveTimeout(*deadline)
		}
	}

	fmt.Printf("TeaLeaf-Go  version=%s  mesh=%dx%d  solver=%s  eps=%g\n",
		v.Name, cfg.NX, cfg.NY, cfg.Solver, cfg.Eps)
	start := time.Now()
	res, err := driver.RunResilientCtx(ctx, cfg, kernels, solver.New(opt), os.Stdout, pol)
	wall := time.Since(start)
	if tracer != nil {
		// The trace is written even for partial or failed runs: what the
		// kernels did before the run ended is exactly what it shows.
		if werr := writeTrace(*traceOut, tracer); werr != nil {
			return werr
		}
		fmt.Printf("wrote %s (%d spans)\n", *traceOut, tracer.Len())
	}
	if err != nil {
		if *deadline > 0 && errors.Is(err, context.DeadlineExceeded) {
			// An expired user-set budget is an expected ending, not a fault:
			// report the partial result and stop cleanly.
			fmt.Printf("deadline %v expired after %d completed step(s), %d iterations (partial result)\n",
				*deadline, len(res.Steps), res.TotalIterations)
			return nil
		}
		return err
	}
	fmt.Printf("wall clock %12s   total iterations %d\n", wall.Round(time.Microsecond), res.TotalIterations)
	if res.Recoveries > 0 {
		fmt.Printf("recovered from %d failed step attempt(s) via checkpoint rollback\n", res.Recoveries)
	}
	if injected != nil {
		fmt.Printf("chaos: %d of %d scheduled faults fired\n", injected.Fired(), len(strings.Split(*faultSpec, ";")))
	}

	if *profile {
		if tr := driver.AsTilingReporter(k); tr != nil {
			snap := tr.TilingSnapshot()
			prof.SetGauge("ops_loops_executed", float64(snap.LoopsExecuted))
			prof.SetGauge("ops_flushes", float64(snap.Flushes))
			if snap.Tiling {
				prof.SetGauge("ops_tiles", float64(snap.Tiles))
				prof.SetGauge("ops_chains", float64(snap.Chains))
				prof.SetGauge("ops_max_chain_len", float64(snap.MaxChainLen))
				prof.SetGauge("ops_tile_x", float64(snap.TileX))
				prof.SetGauge("ops_tile_y", float64(snap.TileY))
				if res.TotalIterations > 0 {
					// Flushes are what the tiled chains actually swept;
					// LoopsExecuted is what the same loops would cost untiled.
					prof.SetGauge("ops_sweeps_per_iter_tiled",
						float64(snap.Flushes)/float64(res.TotalIterations))
					prof.SetGauge("ops_sweeps_per_iter_untiled",
						float64(snap.LoopsExecuted)/float64(res.TotalIterations))
				}
			}
		}
		fmt.Println()
		prof.Report(os.Stdout)
	}
	if *visit != "" {
		m, err := grid.NewMesh(cfg.XMin, cfg.XMax, cfg.YMin, cfg.YMax, cfg.NX, cfg.NY)
		if err != nil {
			return err
		}
		fields := []vis.Field{
			{Name: "density", Data: k.FetchField(driver.FieldDensity)},
			{Name: "energy", Data: k.FetchField(driver.FieldEnergy0)},
			{Name: "temperature", Data: k.FetchField(driver.FieldU)},
		}
		if err := vis.WriteFile(*visit, m, fields); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *visit)
	}
	if *qa {
		line := fmt.Sprintf("sdc: %d detected / %d recovered by the solver invariant monitor",
			res.SDCDetected, res.SDCRecovered)
		if world != nil {
			det, rec := world.World().ChecksumStats()
			line += fmt.Sprintf("; %d detected / %d repaired by comm checksums", det, rec)
		}
		fmt.Println(line)
		ref := serial.New()
		defer ref.Close()
		refRes, err := driver.Run(cfg, ref, solver.New(solver.FromConfig(&cfg)), nil)
		if err != nil {
			return fmt.Errorf("qa reference run: %w", err)
		}
		diff, err := driver.CompareTotalsChecked(res.Final, refRes.Final)
		if err != nil {
			return fmt.Errorf("qa check: %w", err)
		}
		status := "PASSED"
		if diff > 1e-8 {
			status = "FAILED"
		}
		fmt.Printf("qa check vs manual-serial: max relative difference %.3e  %s\n", diff, status)
		if status == "FAILED" {
			return fmt.Errorf("qa check failed")
		}
	}
	return nil
}
