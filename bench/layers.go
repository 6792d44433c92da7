package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/warwick-hpsc/tealeaf-go/internal/checkpoint"
	"github.com/warwick-hpsc/tealeaf-go/internal/comm"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
	"github.com/warwick-hpsc/tealeaf-go/internal/kern"
	"github.com/warwick-hpsc/tealeaf-go/internal/kokkos"
	"github.com/warwick-hpsc/tealeaf-go/internal/ops"
	"github.com/warwick-hpsc/tealeaf-go/internal/par"
	"github.com/warwick-hpsc/tealeaf-go/internal/perfmodel"
	"github.com/warwick-hpsc/tealeaf-go/internal/raja"
	"github.com/warwick-hpsc/tealeaf-go/internal/registry"
	"github.com/warwick-hpsc/tealeaf-go/internal/serve/journal"
	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
	"github.com/warwick-hpsc/tealeaf-go/internal/solver"
)

// The micro-timings below call each layer directly, from outside, at the
// workload's mesh size. They run only in the traced run; none is gated.

// sink keeps results alive so the compiler cannot drop a timed call.
var sink float64

// opNs times batches of per calls to fn and returns the median
// nanoseconds per call.
func opNs(batches, per int, fn func()) float64 {
	ts := make([]float64, batches)
	for b := range ts {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		ts[b] = float64(time.Since(t0).Nanoseconds()) / float64(per)
	}
	return median(ts)
}

// mallocsPer returns heap allocations per call of fn.
func mallocsPer(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// triadGBps is the host's streaming bandwidth as a[i] = b[i] + s*c[i] over
// three 16 MiB arrays sees it: the best of five passes, computed bytes.
func triadGBps() float64 {
	const n = 2 << 20
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = float64(i), 1
	}
	best := time.Duration(1 << 62)
	for pass := 0; pass < 5; pass++ {
		t0 := time.Now()
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
		best = min(best, time.Since(t0))
	}
	sink += a[n/2]
	return 3 * 8 * n / best.Seconds() / 1e9
}

// kernLayer times the shared row bodies over nx×ny halo'd fields, as
// computed bytes per second: what the arithmetic must read and write, not
// what the caches moved.
func kernLayer(out *outcome, nx, ny int) {
	const d = 2
	stride := nx + 2*d
	field := func(v float64) []float64 {
		f := make([]float64, stride*(ny+2*d))
		for i := range f {
			f[i] = v
		}
		return f
	}
	row := func(f []float64, j int) []float64 { return f[(j+d)*stride : (j+d+1)*stride] }
	in := func(f []float64, j int) []float64 { return row(f, j)[d : d+nx] }
	p, w, u, r, u0, un := field(1), field(0), field(1), field(1), field(1), field(1)
	kx, ky := field(0.1), field(0.1)

	cells := float64(nx * ny)
	passes := max(1, (1<<21)/(nx*ny))
	gbps := func(bytesPerCell float64, sweep func()) stat {
		ts := make([]float64, 7)
		for i := range ts {
			t0 := time.Now()
			for k := 0; k < passes; k++ {
				sweep()
			}
			ts[i] = bytesPerCell * cells * float64(passes) / time.Since(t0).Seconds() / 1e9
		}
		return sampleStat(ts)
	}
	out.set("kern.operator_row_gbps", gbps(4*8, func() {
		for j := 0; j < ny; j++ {
			kern.OperatorRow(row(w, j), row(p, j), row(p, j+1), row(p, j-1), row(kx, j), row(ky, j), row(ky, j+1), d, nx)
		}
	}))
	out.set("kern.dot_acc_gbps", gbps(2*8, func() {
		acc := 0.0
		for j := 0; j < ny; j++ {
			acc = kern.DotAcc(acc, in(p, j), in(w, j))
		}
		sink += acc
	}))
	out.set("kern.update_ur_gbps", gbps(6*8, func() {
		for j := 0; j < ny; j++ {
			kern.UpdateUR(in(u, j), in(p, j), in(r, j), in(w, j), 1e-9)
		}
	}))
	out.set("kern.jacobi_row_gbps", gbps(5*8, func() {
		acc := 0.0
		for j := 0; j < ny; j++ {
			acc = kern.JacobiRow(acc, row(u, j), row(un, j), row(un, j+1), row(un, j-1), row(u0, j), row(kx, j), row(ky, j), row(ky, j+1), d, nx)
		}
		sink += acc
	}))
}

// parLayer times the fork-join runtime every threaded port sits on.
func parLayer(out *outcome) {
	n := runtime.NumCPU()
	team := par.NewTeam(n)
	defer team.Close()
	empty := func(int, int) {}
	reduce := func() {
		sink += team.ReduceSum(0, 1024, func(from, to int) float64 { return float64(to - from) })
	}
	out.set("par.dispatch_ns", stat{value: opNs(9, 2000, func() { team.For(0, n, empty) })})
	out.set("par.reduce_sum_ns", stat{value: opNs(9, 2000, reduce)})
	out.set("par.reduce_allocs", stat{value: mallocsPer(2000, reduce)})
	out.set("par.team_spawn_us", stat{value: opNs(9, 20, func() {
		t := par.NewTeam(n)
		t.For(0, n, empty)
		t.Close()
	}) / 1e3})
}

// commLayer times the halo swap of one depth-2 column strip between two
// ranks and the scalar allreduce, over the in-process and the Unix-socket
// transport.
func commLayer(out *outcome, ny int) error {
	strip := 2 * ny
	halo := func(w *comm.World, iters int) func() {
		return func() {
			_ = w.Run(func(r *comm.Rank) {
				pack, recv := make([]float64, strip), make([]float64, strip)
				peer := 1 - r.ID()
				for i := 0; i < iters; i++ {
					r.Send(peer, 1, pack)
					r.RecvInto(peer, 1, recv)
				}
			})
		}
	}
	allreduce := func(w *comm.World, iters int) func() {
		return func() {
			_ = w.Run(func(r *comm.Rank) {
				for i := 0; i < iters; i++ {
					r.AllreduceSum(float64(r.ID() + i))
				}
			})
		}
	}
	measure := func(w *comm.World, iters int, haloName, allreduceName string) error {
		halo(w, 16)() // prime the payload free list
		if err := w.Err(); err != nil {
			return err
		}
		out.set(haloName, stat{value: opNs(5, 1, halo(w, iters)) / float64(iters)})
		out.set(allreduceName, stat{value: opNs(5, 1, allreduce(w, iters)) / float64(iters)})
		return w.Err()
	}

	inproc := comm.NewWorld(2)
	if err := measure(inproc, 4000, "comm.halo_inproc_ns", "comm.allreduce_inproc_ns"); err != nil {
		return err
	}
	out.set("comm.halo_allocs", stat{value: mallocsPer(1, halo(inproc, 4000)) / 4000})
	n := runtime.NumCPU()
	out.set("comm.world_spawn_us", stat{value: opNs(9, 20, func() {
		_ = comm.NewWorld(n).Run(func(*comm.Rank) {})
	}) / 1e3})

	dir := filepath.Join(stateRoot, "sock")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sock, err := comm.NewSocketWorld(2, comm.SocketOptions{
		Addrs: []string{filepath.Join(dir, "r0.sock"), filepath.Join(dir, "r1.sock")}})
	if err != nil {
		return err
	}
	defer sock.Close()
	return measure(sock, 1000, "comm.halo_socket_ns", "comm.allreduce_socket_ns")
}

// stencil5 is the sweep the framework layers are timed on.
func stencil5(c, e, w, n, s float64) float64 { return 0.2 * (c + e + w + n + s) }

// opsLayer times the ParLoop interpreter's generic per-point path against
// the same sweep written by hand on the same thread team, and the cost of
// a ParLoop that does no work.
func opsLayer(out *outcome, nx, ny int) error {
	n := runtime.NumCPU()
	ctx, err := ops.NewContext(ops.Options{Backend: ops.BackendOpenMP, Threads: n})
	if err != nil {
		return err
	}
	defer ctx.Close()
	blk := ctx.DeclBlock("bench", nx, ny)
	u, w := blk.DeclDat("u", 2), blk.DeclDat("w", 2)
	for j := -2; j < ny+2; j++ {
		for i := -2; i < nx+2; i++ {
			u.Set(i, j, float64((i+j)%7))
		}
	}
	u.Upload()
	args := []ops.Arg{ops.ArgDat(u, ops.S2D5pt, ops.Read), ops.ArgDat(w, ops.S2D00, ops.Write)}
	loop := func(r ops.Range) func() {
		return func() {
			ctx.ParLoop("sweep", blk, r, args, func(a []*ops.Acc, _ []float64) {
				a[1].Set(0, 0, stencil5(a[0].Get(0, 0), a[0].Get(1, 0), a[0].Get(-1, 0), a[0].Get(0, 1), a[0].Get(0, -1)))
			})
			ctx.Flush()
		}
	}

	stride := nx + 4
	src, dst := make([]float64, stride*(ny+4)), make([]float64, stride*(ny+4))
	for i := range src {
		src[i] = float64(i % 7)
	}
	team := par.NewTeam(n)
	defer team.Close()
	hand := func() {
		team.For(0, ny, func(from, to int) {
			for j := from; j < to; j++ {
				at := (j+2)*stride + 2
				for i := 0; i < nx; i++ {
					dst[at+i] = stencil5(src[at+i], src[at+i+1], src[at+i-1], src[at+i+stride], src[at+i-stride])
				}
			}
		})
	}
	per := max(1, (1<<20)/(nx*ny))
	out.set("ops.parloop_vs_hand_ratio", stat{
		value: opNs(7, per, loop(ops.Range{XLo: 0, XHi: nx, YLo: 0, YHi: ny})) / opNs(7, per, hand)})
	out.set("ops.parloop_dispatch_ns", stat{value: opNs(9, 2000, loop(ops.Range{XLo: 0, XHi: 1, YLo: 0, YHi: 1}))})
	return nil
}

// frameworkLayers times one five-point sweep through Kokkos views, RAJA
// kernels and a simulated-GPU launch, and an empty launch.
func frameworkLayers(out *outcome, nx, ny int) {
	n := runtime.NumCPU()
	cells := float64((nx - 2) * (ny - 2))
	per := max(1, (1<<20)/(nx*ny))

	space := kokkos.NewOpenMP(n)
	ksrc, kdst := kokkos.NewView(space, "src", ny, nx), kokkos.NewView(space, "dst", ny, nx)
	out.set("kokkos.mdrange_ns_per_cell", stat{value: opNs(7, per, func() {
		kokkos.ParallelFor(space, "sweep", kokkos.MDRange{B0: 1, E0: ny - 1, B1: 1, E1: nx - 1}, func(j, i int) {
			kdst.Set(j, i, stencil5(ksrc.At(j, i), ksrc.At(j, i+1), ksrc.At(j, i-1), ksrc.At(j+1, i), ksrc.At(j-1, i)))
		})
	}) / cells})
	space.Close()

	pol := raja.NewOmp(n)
	rsrc, rdst := pol.Alloc(nx*ny), pol.Alloc(nx*ny)
	out.set("raja.kernel2d_ns_per_cell", stat{value: opNs(7, per, func() {
		raja.Kernel2D(pol, "sweep", raja.RangeSegment{Begin: 1, End: ny - 1}, raja.RangeSegment{Begin: 1, End: nx - 1},
			func(j, i int) {
				at := j*nx + i
				rdst[at] = stencil5(rsrc[at], rsrc[at+1], rsrc[at-1], rsrc[at+nx], rsrc[at-nx])
			})
	}) / cells})
	pol.Close()

	dev := simgpu.NewDevice(simgpu.Props{Parallelism: n})
	defer dev.Close()
	one := simgpu.Dim2{X: 1, Y: 1}
	buf := dev.Malloc(1)
	out.set("simgpu.launch_ns", stat{value: opNs(9, 2000, func() {
		dev.Launch("empty", one, one, simgpu.Args(buf), func(simgpu.Block, [][]float64) {})
	})})
	gsrc, gdst := dev.Malloc(nx*ny), dev.Malloc(nx*ny)
	block := simgpu.Dim2{X: 64, Y: 8}
	gridDim := simgpu.GridFor(nx-2, ny-2, block)
	out.set("simgpu.stencil_ns_per_cell", stat{value: opNs(7, per, func() {
		dev.Launch("sweep", gridDim, block, simgpu.Args(gsrc, gdst), func(b simgpu.Block, a [][]float64) {
			s, q := a[0], a[1]
			b.ForThreads(func(gx, gy int) {
				if gx >= nx-2 || gy >= ny-2 {
					return
				}
				at := (gy+1)*nx + gx + 1
				q[at] = stencil5(s[at], s[at+1], s[at-1], s[at+nx], s[at-nx])
			})
		})
	}) / cells})
}

// backendsLayer solves the workload's decks once on each of the seventeen
// versions and reports wall nanoseconds per cell per outer iteration.
func backendsLayer(out *outcome, sb *solveBench) {
	for _, version := range registry.Names() {
		work := 0.0
		runtime.GC()
		t0 := time.Now()
		for d, cfg := range sb.decks {
			tot, iters, err := directRun(version, cfg)
			sb.check(version, d, tot, err)
			work += float64(cfg.NX*cfg.NY) * float64(iters)
		}
		out.set("backends."+version+".ns_per_cell_iter", stat{value: float64(time.Since(t0).Nanoseconds()) / work})
	}
}

// registryLayer times a cold start of each measured version: Make,
// Generate on the workload's first deck and Close.
func registryLayer(out *outcome, cfg config.Config) error {
	m, err := grid.NewMesh(cfg.XMin, cfg.XMax, cfg.YMin, cfg.YMax, cfg.NX, cfg.NY)
	if err != nil {
		return err
	}
	for _, mv := range measured {
		v, err := registry.Get(mv.version)
		if err != nil {
			return err
		}
		var genErr error
		ms := opNs(3, 1, func() {
			k, err := v.Make(portParams())
			if err != nil {
				genErr = err
				return
			}
			if err := k.Generate(m, cfg.States); err != nil {
				genErr = err
			}
			k.Close()
		}) / 1e6
		if genErr != nil {
			return genErr
		}
		out.set("registry.cold_start_ms."+mv.version, stat{value: ms})
	}
	return nil
}

// solverLayer reports the exact iteration and halo-exchange counts of the
// workload's decks on manual-serial, and the time inside Solve per outer
// iteration for each solver on the first deck's mesh (one step, at most 60
// iterations).
func solverLayer(out *outcome, decks []config.Config) error {
	timedSolve := func(cfg config.Config) (res driver.Result, inSolve time.Duration, err error) {
		v, err := registry.Get("manual-serial")
		if err != nil {
			return res, 0, err
		}
		k, err := v.Make(portParams())
		if err != nil {
			return res, 0, err
		}
		defer k.Close()
		inner := solver.New(solver.FromConfig(&cfg))
		s := driver.SolverFunc(func(ctx context.Context, k driver.Kernels) (driver.SolveStats, error) {
			t0 := time.Now()
			st, err := inner.Solve(ctx, k)
			inSolve += time.Since(t0)
			return st, err
		})
		res, err = driver.Run(cfg, k, s, nil)
		return res, inSolve, err
	}
	iters, halos := 0, 0
	for _, cfg := range decks {
		res, _, err := timedSolve(cfg)
		if err != nil {
			return err
		}
		for _, st := range res.Steps {
			iters += st.Stats.Iterations
			halos += st.Stats.HaloExchanges
		}
	}
	out.set("solver.iters_total", stat{value: float64(iters)})
	out.set("solver.halo_exchanges_total", stat{value: float64(halos)})

	for i, kind := range []config.SolverKind{config.SolverCG, config.SolverJacobi, config.SolverChebyshev, config.SolverPPCG} {
		cfg := decks[0]
		cfg.Solver, cfg.Preconditioner = kind, config.PrecondNone
		cfg.EndStep, cfg.SummaryFrequency = 1, 1
		cfg.MaxIters = min(cfg.MaxIters, 60)
		res, inSolve, err := timedSolve(cfg)
		if err != nil {
			return err
		}
		out.set("solver.ns_per_iter."+solverKinds[i], stat{
			value: float64(inSolve.Nanoseconds()) / float64(max(1, res.TotalIterations))})
	}
	return nil
}

// driverLayer turns the traced rounds' spans into seconds per pass of the
// decks: each kernel's summed span time, and the run span's self time (run
// wall minus every kernel span), for manual-serial and manual-mpi.
func driverLayer(out *outcome, log *spanLog, rounds int) {
	self := selfTimes(log.spans)
	for _, side := range []struct {
		prefix  string
		track   int
		kernels []string
	}{{"driver.serial.", 0, serialKernels}, {"driver.mpi.", 2, mpiKernels}} {
		byName := map[string]time.Duration{}
		overhead := time.Duration(0)
		for i, s := range log.spans {
			switch {
			case s.track != side.track:
			case s.name == "run":
				overhead += self[i]
			case s.layer == "driver":
				byName[s.name] += s.end - s.start
			}
		}
		for _, k := range side.kernels {
			out.set(side.prefix+"kernel_s."+k, stat{value: byName[k].Seconds() / float64(rounds)})
		}
		out.set(side.prefix+"step_overhead_s", stat{value: overhead.Seconds() / float64(rounds)})
	}
}

// controlLayer times what a submission costs before any solve: parsing
// and hashing the deck, and one prediction of the scheduler's model.
func controlLayer(out *outcome, cfg config.Config) error {
	text := cfg.Summary()
	var parseErr error
	out.set("config.parse_us", stat{value: opNs(9, 200, func() {
		if _, err := config.ParseReader(strings.NewReader(text)); err != nil {
			parseErr = err
		}
	}) / 1e3})
	out.set("config.hash_us", stat{value: opNs(9, 200, func() { sink += float64(len(cfg.CanonicalHash())) }) / 1e3})
	pred := perfmodel.NewPredictor()
	for i := 1; i <= 8; i++ {
		pred.Observe("manual-omp", cfg.NX*cfg.NY, 10*i, 1e-3*float64(i))
	}
	out.set("perfmodel.predict_ns", stat{value: opNs(9, 5000, func() {
		sink += pred.Predict("manual-omp", cfg.NX*cfg.NY, 100).Seconds
	})})
	return parseErr
}

// durableLayer times the journal and the checkpoint file directly, on the
// filesystem the durable workload's state directory is on.
func durableLayer(out *outcome, cfg config.Config) error {
	dir := filepath.Join(stateRoot, "layer-journal")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	jw, _, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return err
	}
	spec, err := json.Marshal(map[string]string{"deck": cfg.Summary()})
	if err != nil {
		return err
	}
	seq := 0
	appendOne := func(durable bool) func() {
		return func() {
			seq++
			if _, aerr := jw.Append(journal.Record{Kind: journal.KindSubmit, ID: "job-" + strconv.Itoa(seq), Seq: seq, Spec: spec}, durable); aerr != nil {
				err = aerr
			}
		}
	}
	durable := make([]float64, 40)
	for i := range durable {
		durable[i] = opNs(1, 1, appendOne(true)) / 1e3
	}
	out.set("journal.append_durable_p50_us", sampleStat(durable))
	out.set("journal.append_nosync_ns", stat{value: opNs(5, 400, appendOne(false))})
	if err != nil {
		return err
	}
	if err := jw.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	jw, recs, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return err
	}
	out.set("journal.replay_records_per_s", stat{value: float64(len(recs)) / time.Since(t0).Seconds(), n: len(recs)})
	if err := jw.Close(); err != nil {
		return err
	}

	// The two fields a recovery point of the resilient driver holds.
	path := filepath.Join(dir, "bench.ckpt")
	ck := &checkpoint.Checkpoint{Step: 1, Time: cfg.InitialTimestep, NX: cfg.NX, NY: cfg.NY, Fields: []checkpoint.FieldData{
		{ID: int(driver.FieldDensity), Data: make([]float64, cfg.NX*cfg.NY)},
		{ID: int(driver.FieldEnergy0), Data: make([]float64, cfg.NX*cfg.NY)},
	}}
	out.set("checkpoint.save_ms", stat{value: opNs(3, 1, func() {
		if serr := ck.Save(path); serr != nil {
			err = serr
		}
	}) / 1e6})
	out.set("checkpoint.load_ms", stat{value: opNs(3, 1, func() {
		if _, lerr := checkpoint.Load(path); lerr != nil {
			err = lerr
		}
	}) / 1e6})
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	out.set("checkpoint.bytes", stat{value: float64(fi.Size())})
	return nil
}

// procLayer reports the process's own footprint as context.
func procLayer(out *outcome) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.set("proc.alloc_mb", stat{value: float64(ms.TotalAlloc) / 1e6})
	out.set("proc.gc_cycles", stat{value: float64(ms.NumGC)})
	rss := 0.0
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
					rss = kb / 1e3
				}
			}
		}
	}
	out.set("proc.peak_rss_mb", stat{value: rss})
}

// tracedRegion is the traced run: three untraced and three traced rounds of
// one pass per version, every layer's micro-timings, and a tenth of the
// serve time with client-side spans. It fills out with the per-layer
// metrics and writes the spans to out/trace-<workload>.json.
func tracedRegion(out *outcome, w workload, sb *solveBench, vb *serveBench, host hostInfo, seconds float64) error {
	const rounds = 3
	log := vb.spans
	ones := [8]int{1, 1, 1, 1, 1, 1, 1, 1}
	plain := &solveBench{decks: sb.decks, refs: sb.refs, reps: ones}
	traced := &solveBench{decks: sb.decks, refs: sb.refs, reps: ones}
	for i := 0; i < rounds; i++ {
		plain.round(directRun, true)
		traced.round(log.tracedRun, true)
	}
	out.set("trace.overhead_frac", stat{value: median(traced.sweep)/median(plain.sweep) - 1})
	driverLayer(out, log, rounds)
	// The tiled version's counters are summed over its ranks, one per core.
	tiled, untiled := log.tiling["ops-mpi-tiled"], log.tiling["ops-openmp"]
	out.set("ops.sweeps_per_iter_tiled", stat{
		value: float64(tiled.sweeps) / float64(max(1, tiled.iters)) / float64(runtime.NumCPU())})
	out.set("ops.sweeps_per_iter_untiled", stat{value: float64(untiled.sweeps) / float64(max(1, untiled.iters))})

	first := sb.decks[0]
	out.set("kern.triad_gbps", stat{value: host.triadGBps})
	kernLayer(out, first.NX, first.NY)
	parLayer(out)
	if err := commLayer(out, first.NY); err != nil {
		return fmt.Errorf("comm layer: %w", err)
	}
	if err := opsLayer(out, first.NX, first.NY); err != nil {
		return fmt.Errorf("ops layer: %w", err)
	}
	frameworkLayers(out, first.NX, first.NY)
	backendsLayer(out, sb)
	if err := registryLayer(out, first); err != nil {
		return fmt.Errorf("registry layer: %w", err)
	}
	if err := solverLayer(out, sb.decks); err != nil {
		return fmt.Errorf("solver layer: %w", err)
	}
	if err := controlLayer(out, first); err != nil {
		return fmt.Errorf("control layer: %w", err)
	}
	if err := durableLayer(out, first); err != nil {
		return fmt.Errorf("durable layer: %w", err)
	}

	cold, replay, err := vb.warmUp(nil)
	if err != nil {
		return err
	}
	timed := vb.run(0, time.Duration(seconds/10*float64(time.Second)), vb.nextOwn, nil)
	exp, scrape, err := vb.scrape()
	if err != nil {
		return err
	}
	if err := vb.finish(); err != nil {
		return err
	}
	out.set("serve.ack_p50_ms", sampleStat(timed.ackMs))
	out.set("serve.ack_p90_ms", stat{value: percentile(timed.ackMs, 0.9), n: len(timed.ackMs)})
	out.set("serve.cold_jobs_per_s", stat{value: cold.jobsPerS(), n: cold.jobs})
	out.set("serve.replay_s", stat{value: replay.Seconds()})
	v := func(name string) float64 { return vb.since(exp, "teaserve_"+name) }
	completed := max(1, v("jobs_completed_total"))
	out.set("serve.cache_hit_ratio", stat{value: (v("cache_hits_total") + v("singleflight_followers_total")) / completed})
	out.set("serve.followers", stat{value: v("singleflight_followers_total")})
	out.set("serve.batches", stat{value: v("batches_total")})
	out.set("serve.solves", stat{value: v("solves_total")})
	out.set("serve.rejected", stat{value: v("jobs_rejected_total")})
	out.set("serve.evicted", stat{value: v("jobs_evicted_total")})
	out.set("serve.solve_seconds_p50", stat{value: histogramQuantile(exp, "teaserve_solve_seconds", 0.5)})
	out.set("serve.sched_pred_err_p50", stat{value: histogramQuantile(exp, "teaserve_sched_prediction_error_ratio", 0.5)})
	out.set("journal.syncs_per_job", stat{value: v("journal_syncs_total") / completed})
	out.set("obs.scrape_ms", stat{value: scrape.Seconds() * 1e3})
	procLayer(out)

	sb.attempted += plain.attempted + traced.attempted
	sb.failed += plain.failed + traced.failed
	sb.problems = append(sb.problems, append(plain.problems, traced.problems...)...)
	return log.write(filepath.Join(stateRoot, "trace-"+w.name+".json"))
}
