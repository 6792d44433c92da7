// Package omp is the manually-parallelised shared-memory TeaLeaf port, the
// analogue of the mini-app's OpenMP build: the shared host chunk
// (internal/backends/hostchunk) with every kernel a fork-join parallel loop
// over mesh rows on a persistent thread team (internal/par), reductions
// combined deterministically at the join.
package omp

import (
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/hostchunk"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
	"github.com/warwick-hpsc/tealeaf-go/internal/par"
)

// Chunk is the OpenMP-style port: one chunk whose row policy is a thread
// team's static schedule; the reflective halo's side loops run on the team
// too, like the OpenMP update_halo.
type Chunk struct {
	*hostchunk.Chunk
	team *par.Team
}

var _ driver.Kernels = (*Chunk)(nil)

// New creates the port with the given thread count (<= 0 uses all cores,
// like an unset OMP_NUM_THREADS).
func New(threads int) *Chunk {
	team := par.NewTeam(threads)
	return &Chunk{hostchunk.New(team, hostchunk.Reflective{Rows: team}), team}
}

// Name implements driver.Kernels.
func (c *Chunk) Name() string { return "manual-omp" }

// Threads returns the team width, for reporting.
func (c *Chunk) Threads() int { return c.team.NumThreads() }

// Generate implements driver.Kernels.
func (c *Chunk) Generate(m *grid.Mesh, states []config.State) error {
	// Cache-topology-aware share assignment: snap static share boundaries
	// to the tile-row quantum the detected cache hierarchy suggests, rounded
	// to the 4-wide unroll, so a thread's rows cover whole unrolled tile rows
	// and two threads never interleave within a cache-sized row band.
	// Reductions combine per-thread partials in thread order either way, so
	// this only regroups — never reorders within a share — and stays
	// deterministic for a fixed thread count.
	_, ty := par.DetectTopology().AutoTile(m.Nx, m.Ny, 8*6)
	if ty > 16 {
		ty = 16
	}
	c.team.SetShareAlign(ty &^ 3)
	return c.Chunk.Generate(m, states)
}

// Close implements driver.Kernels.
func (c *Chunk) Close() { c.team.Close() }
