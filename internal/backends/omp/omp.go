// Package omp is the manually-parallelised shared-memory TeaLeaf port, the
// analogue of the mini-app's OpenMP build: the one chunk recipe
// (internal/backends/chunk) under the host policy on a persistent thread
// team (internal/par), every kernel a fork-join parallel loop over mesh rows,
// reductions combined deterministically at the join.
package omp

import (
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/chunk"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
	"github.com/warwick-hpsc/tealeaf-go/internal/par"
)

// Chunk is the OpenMP-style port: one chunk whose loops, the reflective
// halo's included (like the OpenMP update_halo), are a thread team's static
// schedule.
type Chunk struct {
	*chunk.Chunk[*grid.Field]
	team *par.Team
}

var _ driver.Kernels = (*Chunk)(nil)

// New creates the port with the given thread count (<= 0 uses all cores,
// like an unset OMP_NUM_THREADS).
func New(threads int) *Chunk {
	team := par.NewTeam(threads)
	return &Chunk{chunk.New[*grid.Field](chunk.NewHost(team), false), team}
}

// Name implements driver.Kernels.
func (c *Chunk) Name() string { return "manual-omp" }

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

// FetchField implements driver.Kernels: the fields are the host's to read.
func (c *Chunk) FetchField(id driver.FieldID) []float64 { return c.Interior(c.Field(id).Data) }

// RestoreField implements driver.Kernels: the write-path inverse of
// FetchField, used by checkpoint rollback.
func (c *Chunk) RestoreField(id driver.FieldID, data []float64) {
	c.SetInterior(c.Field(id).Data, data)
}
