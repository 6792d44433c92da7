package opsport

import (
	"fmt"
	"strings"
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/mpi"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/serial"
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/spmd"
	"github.com/warwick-hpsc/tealeaf-go/internal/comm"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
	"github.com/warwick-hpsc/tealeaf-go/internal/ops"
	"github.com/warwick-hpsc/tealeaf-go/internal/solver"
)

// rankVersion is a distributed version's rank-local set and how to read one
// of its fields, padded and row-major, once its queued loops have run.
type rankVersion struct {
	name   string
	set    func(r *comm.Rank) (driver.Kernels, error)
	padded func(k driver.Kernels, id driver.FieldID) []float64
}

// rankVersions are the distributed versions whose ranks share the one rank
// layer: manual-mpi, ops-mpi and ops-mpi-tiled.
func rankVersions() []rankVersion {
	opsSet := func(opt Options) func(r *comm.Rank) (driver.Kernels, error) {
		return func(r *comm.Rank) (driver.Kernels, error) { return newRankState(opt, r) }
	}
	opsPadded := func(k driver.Kernels, id driver.FieldID) []float64 {
		rs := k.(*rankState)
		rs.ctx.Flush()
		return rs.Field(id).Data()
	}
	return []rankVersion{
		{"manual-mpi",
			func(r *comm.Rank) (driver.Kernels, error) { return mpi.NewRankKernels(r, 1), nil },
			func(k driver.Kernels, id driver.FieldID) []float64 { return k.(*mpi.RankKernels).Field(id).Data }},
		{"ops-mpi", opsSet(Options{Backend: ops.BackendSerial, Ranks: 4}), opsPadded},
		{"ops-mpi-tiled", opsSet(Options{Backend: ops.BackendSerial, Ranks: 4, Tiling: true}), opsPadded},
	}
}

// world builds v's sets on an in-process world of n ranks and returns the
// runner over them and the sets in rank order.
func (v rankVersion) world(t *testing.T, n int) (*spmd.Runner, []driver.Kernels) {
	t.Helper()
	var sets []driver.Kernels
	p, err := spmd.New(v.name, comm.NewWorld(n), func(r *comm.Rank) (driver.Kernels, error) {
		k, err := v.set(r)
		sets = append(sets, k)
		return k, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, sets
}

// TestHaloExchangeMatchesSerial holds every rank's exchanged halo to the
// serial chunk's: on a 2x2 decomposition of an uneven 9x7 mesh whose every
// field holds a distinct value per cell, each rank's padded field within
// depth of its interior must equal the same window of manual-serial's padded
// field after its own exchange, at depths one and two. That window covers the
// x and y strips, the corners (the diagonal neighbours' cells, carried by the
// y phase) and the reflected physical sides.
func TestHaloExchangeMatchesSerial(t *testing.T) {
	const nx, ny, ranks = 9, 7, 4
	cfg := config.BenchmarkN(nx)
	cfg.NX, cfg.NY = nx, ny
	m, err := grid.NewMesh(cfg.XMin, cfg.XMax, cfg.YMin, cfg.YMax, nx, ny)
	if err != nil {
		t.Fatal(err)
	}
	fields := make([]driver.FieldID, driver.NumFields)
	for k := range fields {
		fields[k] = driver.FieldID(k)
	}
	slab := func(id driver.FieldID) []float64 {
		s := make([]float64, nx*ny)
		for k := range s {
			s[k] = float64(1000*int(id)+k) + 0.5
		}
		return s
	}
	// load generates k, overwrites every field with its slab and exchanges.
	load := func(k driver.Kernels, depth int) {
		if err := k.Generate(m, cfg.States); err != nil {
			t.Fatal(err)
		}
		for _, id := range fields {
			k.RestoreField(id, slab(id))
		}
		k.HaloExchange(fields, depth)
	}
	for _, depth := range []int{1, 2} {
		ref := serial.New()
		load(ref, depth)
		for _, v := range rankVersions() {
			t.Run(fmt.Sprintf("%s/depth%d", v.name, depth), func(t *testing.T) {
				p, sets := v.world(t, ranks)
				defer p.Close()
				load(p, depth)
				var bad []string
				for rank, k := range sets {
					ch := comm.CartGrid{PX: 2, PY: 2}.ChunkOf(rank, nx, ny)
					for _, id := range fields {
						got, want := v.padded(k, id), ref.Field(id).Data
						for j := -depth; j < ch.NY+depth; j++ {
							for i := -depth; i < ch.NX+depth; i++ {
								g := got[(j+halo)*(ch.NX+2*halo)+i+halo]
								w := want[(ch.Y0+j+halo)*(nx+2*halo)+ch.X0+i+halo]
								if g != w && len(bad) < 10 {
									bad = append(bad, fmt.Sprintf("rank %d field %d cell (%d,%d): %g, serial %g", rank, id, i, j, g, w))
								}
							}
						}
					}
				}
				if len(bad) > 0 {
					t.Errorf("exchanged halos differ from serial:\n%s", strings.Join(bad, "\n"))
				}
			})
		}
	}
}

// TestHaloExchangeDoesNotAllocate: once warm, a manual-mpi exchange of every
// field at full depth allocates nothing on any rank.
func TestHaloExchangeDoesNotAllocate(t *testing.T) {
	cfg := config.BenchmarkN(16)
	m, err := grid.NewMesh(cfg.XMin, cfg.XMax, cfg.YMin, cfg.YMax, cfg.NX, cfg.NY)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := rankVersions()[0].world(t, 4)
	defer p.Close()
	if err := p.Generate(m, cfg.States); err != nil {
		t.Fatal(err)
	}
	fields := []driver.FieldID{driver.FieldDensity, driver.FieldEnergy1, driver.FieldU, driver.FieldP, driver.FieldSD}
	for k := 0; k < 3; k++ {
		p.HaloExchange(fields, halo)
	}
	if n := testing.AllocsPerRun(50, func() { p.HaloExchange(fields, halo) }); n != 0 {
		t.Errorf("HaloExchange: %v allocs per call, want 0", n)
	}
}

// TestCGIterationDoesNotAllocate: once warm, a diagonal-preconditioned CG
// iteration — the p exchange, CGCalcW, CGCalcUR, CGCalcP and Norm2R — on every
// OPS backend, tiled and untiled, allocates on each rank exactly what the
// same iteration allocates on manual-serial: the chunk recipe's per-call
// bodies, which every port of the recipe pays (four, one each for CGCalcW,
// CGCalcUR, CGCalcP and the dot of Norm2R). OPS adds nothing to it: loop
// records, argument lists, accessor sets, row kernels, team and device bodies,
// reduction handles and partials are the context's and the policy's, reused.
func TestCGIterationDoesNotAllocate(t *testing.T) {
	cfg := config.BenchmarkN(32)
	m, err := grid.NewMesh(cfg.XMin, cfg.XMax, cfg.YMin, cfg.YMax, cfg.NX, cfg.NY)
	if err != nil {
		t.Fatal(err)
	}
	iterAllocs := func(t *testing.T, k driver.Kernels) float64 {
		t.Helper()
		defer k.Close()
		if err := k.Generate(m, cfg.States); err != nil {
			t.Fatal(err)
		}
		k.HaloExchange([]driver.FieldID{driver.FieldDensity, driver.FieldEnergy1}, 2)
		k.SolveInit(cfg.Coefficient, 1e-3, 1e-3, config.PrecondJacDiag)
		k.CGInitP(true)
		fields := []driver.FieldID{driver.FieldP}
		iterate := func() {
			k.HaloExchange(fields, 1)
			pw := k.CGCalcW()
			rrn := k.CGCalcUR(1e-3/(1+pw*pw), true)
			k.CGCalcP(1e-3/(1+rrn*rrn), true)
			k.Norm2R()
		}
		for n := 0; n < 3; n++ {
			iterate()
		}
		return testing.AllocsPerRun(20, iterate)
	}
	recipe := iterAllocs(t, serial.New())
	for _, c := range []struct {
		name string
		opt  Options
	}{
		{"ops-openmp", Options{Backend: ops.BackendOpenMP, Threads: 2}},
		{"ops-openacc", Options{Backend: ops.BackendACC, Threads: 2}},
		{"ops-cuda", Options{Backend: ops.BackendCUDA, Threads: 2}},
		{"ops-mpi", Options{Backend: ops.BackendSerial, Ranks: 4}},
		{"ops-mpi-tiled", Options{Backend: ops.BackendSerial, Ranks: 4, Tiling: true, TileX: 8, TileY: 8}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, err := New(c.opt)
			if err != nil {
				t.Fatal(err)
			}
			want := recipe * float64(max(c.opt.Ranks, 1))
			if n := iterAllocs(t, p); n != want {
				t.Errorf("CG iteration: %v allocs, want %v (manual-serial's %v per rank)", n, want, recipe)
			}
		})
	}
}

// TestRanksBeyondMesh: a rank count whose decomposition leaves some rank an
// empty chunk (16 ranks decompose a 3x3 mesh as 4x4) is an error from
// Generate on every distributed version, not a panic, and the port still
// closes.
func TestRanksBeyondMesh(t *testing.T) {
	cfg := config.BenchmarkN(3)
	m, err := grid.NewMesh(cfg.XMin, cfg.XMax, cfg.YMin, cfg.YMax, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rankVersions()[:2] {
		t.Run(v.name, func(t *testing.T) {
			p, _ := v.world(t, 16)
			defer p.Close()
			defer func() {
				if pv := recover(); pv != nil {
					t.Errorf("Generate panicked: %v", pv)
				}
			}()
			if err := p.Generate(m, cfg.States); err == nil {
				t.Error("Generate of 16 ranks on a 3x3 mesh returned no error")
			}
		})
	}
}

// TestSocketRanksMatchInProcess runs ops-mpi's rank sets over the loopback
// socket transport on the conformance decks: every field summary must equal
// the in-process world's bit for bit, since only the route of the bytes
// differs.
func TestSocketRanksMatchInProcess(t *testing.T) {
	opt := Options{Backend: ops.BackendSerial, Ranks: 4}
	decks := map[string]func(*config.Config){
		"CG":        func(cfg *config.Config) { cfg.NX, cfg.NY, cfg.EndStep = 20, 20, 3 },
		"NonSquare": func(cfg *config.Config) { cfg.NX, cfg.NY = 33, 7 },
		"Recip":     func(cfg *config.Config) { cfg.Coefficient = config.RecipConductivity },
		"JacDiag":   func(cfg *config.Config) { cfg.Preconditioner = config.PrecondJacDiag },
		"JacBlock":  func(cfg *config.Config) { cfg.Preconditioner = config.PrecondJacBlock },
		"Chebyshev": func(cfg *config.Config) { cfg.Solver = config.SolverChebyshev },
		"PPCG":      func(cfg *config.Config) { cfg.Solver = config.SolverPPCG },
		"Jacobi":    func(cfg *config.Config) { cfg.Solver, cfg.Eps, cfg.MaxIters = config.SolverJacobi, 1e-12, 100000 },
		"EndTime": func(cfg *config.Config) {
			cfg.EndStep, cfg.SummaryFrequency, cfg.EndTime = 10, 0, 2.5*cfg.InitialTimestep
		},
		"MultiState": func(cfg *config.Config) {
			cfg.States = append(cfg.States, config.State{Index: 3, Density: 5, Energy: 10, Geometry: config.GeomCircular, XMin: 7, YMin: 7, Radius: 2})
		},
	}
	for name, mutate := range decks {
		t.Run(name, func(t *testing.T) {
			cfg := config.BenchmarkN(16)
			cfg.EndStep = 2
			mutate(&cfg)
			run := func(k driver.Kernels) driver.Totals {
				defer k.Close()
				res, err := driver.Run(cfg, k, solver.New(solver.FromConfig(&cfg)), nil)
				if err != nil {
					t.Fatalf("%s: %v", k.Name(), err)
				}
				return res.Final
			}
			inproc, err := New(opt)
			if err != nil {
				t.Fatal(err)
			}
			w, err := comm.NewSocketWorld(opt.Ranks, comm.SocketOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sp, err := spmd.New("ops-mpi-socket", w, func(r *comm.Rank) (driver.Kernels, error) { return newRankState(opt, r) })
			if err != nil {
				t.Fatal(err)
			}
			want, got := run(inproc), run(sp)
			if ws := w.WireStats(); ws.FramesSent == 0 {
				t.Fatalf("socket run moved no wire traffic: %+v", ws)
			}
			if got != want {
				t.Errorf("socket world %+v, in-process world %+v", got, want)
			}
		})
	}
}
