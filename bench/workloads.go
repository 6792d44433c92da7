package main

import (
	"fmt"
	"math/rand"

	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/serve"
)

// measured are the versions timed end to end: one representative per
// family × execution policy, the paper's Figure 2–5 quantity. The order is
// the order of one round; serial is the plain single-threaded baseline.
// kokkos-openmp and raja-openmp are timed in every round and count towards
// sweep_solve_s but have no gated metric of their own: their run-to-run
// spread on a 2-vCPU host is past any bound (README.md, "Demoted").
var measured = []struct{ version, metric string }{
	{"manual-serial", "serial_solve_s"},
	{"manual-omp", "omp_solve_s"},
	{"manual-mpi", "mpi_solve_s"},
	{"ops-openmp", "ops_solve_s"},
	{"ops-mpi-tiled", "ops_tiled_solve_s"},
	{"kokkos-openmp", ""},
	{"raja-openmp", ""},
	{"manual-cuda", "simgpu_solve_s"},
}

// servePool is the teaserve default scheduling pool.
var servePool = []string{"manual-serial", "manual-omp", "ops-openmp"}

// deckGen makes every deck of a run from the seed: state 2's energy and
// position move by under 1 %, and "unique" decks get an energy no other
// deck of the run has, so no two share a config hash.
type deckGen struct {
	rng    *rand.Rand
	dE, dX float64
	serial int
}

func newDeckGen(seed int64) *deckGen {
	rng := rand.New(rand.NewSource(seed))
	return &deckGen{rng: rng, dE: 0.005 * rng.Float64(), dX: 0.005 * rng.Float64()}
}

// bm is the tea_bm deck at n×n cells with the seed's perturbation.
func (g *deckGen) bm(n, steps int) config.Config {
	c := config.BenchmarkN(n)
	c.EndStep = steps
	c.SummaryFrequency = steps
	s := &c.States[1]
	s.Energy *= 1 + g.dE
	s.XMin += g.dX
	s.XMax += g.dX
	return c
}

// unique returns c with an energy used once in this run.
func (g *deckGen) unique(c config.Config) config.Config {
	g.serial++
	c.States = append([]config.State(nil), c.States...)
	c.States[1].Energy += 1e-6 * float64(g.serial)
	return c
}

// jobReq is one submission: hot >= 0 names the hot deck whose direct
// reference the served result must equal.
type jobReq struct {
	spec serve.JobSpec
	hot  int
}

func deckJob(c config.Config) jobReq {
	return jobReq{spec: serve.JobSpec{Deck: c.Summary()}, hot: -1}
}

// serveSide is how a workload's decks arrive at the server. Every other
// server option is the teaserve default (see serverOptions).
type serveSide struct {
	durable bool
	retain  int // Options.RetainJobs
	// filler 16², 1-step unique jobs and then warm jobs of the workload's
	// own traffic run untimed, so the store has reached RetainJobs — the
	// regime a long-lived server is in — before anything is timed.
	filler, warm int
	hot          func(g *deckGen) []config.Config
	next         func(g *deckGen, i int, hot []config.Config) jobReq
}

type workload struct {
	name string
	// decks are solved back to back in one pass; a sample is reps[v] passes
	// of measured[v], sized so that no sample is shorter than 0.08 s on a
	// 2-vCPU host.
	decks func(g *deckGen) []config.Config
	reps  [8]int
	serve serveSide
}

const defaultRetain = 4096

var workloads = []workload{
	{
		name: "small_hot",
		// Kernels are cheap at 128² (2 MB of fields, L2-resident), so par
		// dispatch, comm halo+allreduce, the ops interpreter, simgpu launches
		// and port construction do most of the work; on the serve side 75 % of
		// jobs come from 8 hot decks, so cache, singleflight, batching,
		// admission and retention do.
		decks: func(g *deckGen) []config.Config { return []config.Config{g.bm(128, 10)} },
		reps:  [8]int{3, 3, 2, 2, 2, 1, 1, 1},
		serve: serveSide{
			retain: defaultRetain, warm: defaultRetain + 504,
			hot: func(g *deckGen) []config.Config {
				var hot []config.Config
				for _, n := range []int{32, 36, 40, 44, 48, 52, 56, 64} {
					hot = append(hot, g.bm(n, 2))
				}
				return hot
			},
			next: func(g *deckGen, _ int, hot []config.Config) jobReq {
				if g.rng.Intn(4) < 3 {
					h := g.rng.Intn(len(hot))
					return jobReq{spec: serve.JobSpec{Deck: hot[h].Summary()}, hot: h}
				}
				return deckJob(g.unique(g.bm(32+8*g.rng.Intn(5), 2)))
			},
		},
	},
	{
		name: "large_stream",
		// 126 MB of fields, 30x L2, a fixed 10 iterations (not a converged
		// solve): kern row bodies and memory traffic are nearly all of the
		// time. A serve or dispatch optimisation must show no change here and
		// a kernel one must show fully.
		decks: func(g *deckGen) []config.Config {
			c := g.bm(1024, 1)
			c.MaxIters = 10
			return []config.Config{c}
		},
		reps: [8]int{1, 1, 2, 1, 1, 1, 1, 1},
		serve: serveSide{
			retain: defaultRetain, filler: defaultRetain + 104, warm: 8,
			next: func(g *deckGen, _ int, _ []config.Config) jobReq {
				c := g.bm(384, 1)
				c.MaxIters = 60
				return deckJob(g.unique(c))
			},
		},
	},
	{
		name: "solver_mix",
		// The same layers used differently: ChebyIterate, PPCGInnerIterate and
		// ApplyPrecond instead of the fused CG path, few reductions per sweep;
		// jobs over five solvers, three priorities, half pinned to the eight
		// measured versions. A CG-only gain that costs the other solvers, or a
		// scheduler change that hurts mixed tiers, shows here.
		decks: func(g *deckGen) []config.Config {
			ppcg := g.bm(192, 1)
			ppcg.Solver, ppcg.PPCGInnerSteps = config.SolverPPCG, 12
			cheby := g.bm(192, 1)
			cheby.Solver = config.SolverChebyshev
			block := g.bm(192, 1)
			block.Preconditioner = config.PrecondJacBlock
			return []config.Config{ppcg, cheby, block}
		},
		reps: [8]int{2, 2, 2, 1, 1, 1, 1, 1},
		serve: serveSide{
			retain: defaultRetain, filler: defaultRetain + 104, warm: 40,
			next: func(g *deckGen, i int, _ []config.Config) jobReq {
				c := g.bm(96, 1)
				c.MaxIters = 300
				switch i % 5 {
				case 0:
					c.Solver, c.PPCGInnerSteps = config.SolverPPCG, 12
				case 1:
					c.Solver = config.SolverChebyshev
				case 2:
					c.Preconditioner = config.PrecondJacDiag
				case 3:
					c.Preconditioner = config.PrecondJacBlock
				case 4:
					c.Solver = config.SolverJacobi
				}
				j := deckJob(g.unique(c))
				j.spec.Priority = [4]string{"high", "normal", "low", "normal"}[i%4]
				if i%2 == 0 {
					j.spec.Version = measured[(i/2)%len(measured)].version
				}
				return j
			},
		},
	},
	{
		name: "durable_cold",
		// 8 MB of fields, past L2 and inside LLC: the middle of the mesh sweep.
		// Every job is unique and goes through the fsynced journal with a
		// checkpoint mirrored each step, on a server restarted over its own
		// journal: writes beside the other workloads' reads.
		decks: func(g *deckGen) []config.Config { return []config.Config{g.bm(256, 2)} },
		reps:  [8]int{1, 2, 1, 1, 1, 1, 1, 1},
		serve: serveSide{
			durable: true, retain: 256, warm: 300,
			next: func(g *deckGen, _ int, _ []config.Config) jobReq {
				return deckJob(g.unique(g.bm(64, 3)))
			},
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// fillerJob is one store-filling submission: the cheapest deck the server
// accepts, unique so that neither cache nor singleflight short-cuts it.
func fillerJob(g *deckGen) jobReq { return deckJob(g.unique(g.bm(16, 1))) }

// fieldBytes is the storage one port allocates for c: fifteen halo'd
// double fields.
func fieldBytes(c config.Config) int { return 15 * 8 * (c.NX + 4) * (c.NY + 4) }
