// Package openacc is the directive-style TeaLeaf port, the analogue of the
// mini-app's OpenACC build. Its defining property in the study is a single
// kernel source that retargets between the host CPU (-ta=multicore) and an
// accelerator (-ta=tesla): here the shared host chunk
// (internal/backends/hostchunk) runs under a row policy that treats every
// loop as one offloaded parallel region, executed either on a host thread
// team or on a gang-scheduled device executor with data-region transfer
// accounting.
package openacc

import (
	"sync/atomic"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/hostchunk"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
	"github.com/warwick-hpsc/tealeaf-go/internal/par"
)

// Target selects where parallel regions execute, mirroring the compiler's
// -ta flag.
type Target int

const (
	// TargetHost offloads to the host processor (-ta=multicore).
	TargetHost Target = iota
	// TargetDevice offloads to the accelerator (-ta=tesla).
	TargetDevice
)

func (t Target) String() string {
	if t == TargetDevice {
		return "tesla"
	}
	return "multicore"
}

// Stats counts offload activity for the device target.
type Stats struct {
	Regions  int64 // parallel regions launched
	BytesIn  int64 // copyin volume at data-region entry
	BytesOut int64 // copyout volume at data-region exit
}

// regions is the port's row policy: each loop is one `acc parallel loop`
// region on the team, counted, with the device target's transfers charged.
type regions struct {
	target Target
	team   *par.Team // execution resource for both targets

	launched, bytesIn, bytesOut atomic.Int64
}

// For implements hostchunk.Rows: on the host target a static team loop, on
// the device target a gang-scheduled launch (guided chunks standing in for
// gang scheduling: big early claims like a full wave of gangs, small late
// ones balancing the tail).
func (r *regions) For(lo, hi int, body func(j0, j1 int)) {
	r.launched.Add(1)
	if r.target == TargetDevice {
		r.team.ForGuided(lo, hi, 4, body)
		return
	}
	r.team.For(lo, hi, body)
}

// ForDynamic implements hostchunk.Rows on the team alone: the chunk
// allocates through it, which is data management (`acc enter data create`),
// not a compute region, so nothing is counted.
func (r *regions) ForDynamic(lo, hi, chunk int, body func(j0, j1 int)) {
	r.team.ForDynamic(lo, hi, chunk, body)
}

// ReduceSum implements hostchunk.Rows: an `acc parallel loop
// reduction(+:sum)` whose scalar comes back with an `acc update host`.
func (r *regions) ReduceSum(lo, hi int, body func(j0, j1 int) float64) float64 {
	r.launched.Add(1)
	r.updateHost(1)
	return r.team.ReduceSum(lo, hi, body)
}

// ReduceSum2 implements hostchunk.Rows for two reduction scalars.
func (r *regions) ReduceSum2(lo, hi int, body func(j0, j1 int) (float64, float64)) (float64, float64) {
	r.launched.Add(1)
	r.updateHost(2)
	return r.team.ReduceSum2(lo, hi, body)
}

// enterData models `acc enter data copyin(...)`: on the device target the
// given volume is charged as host-to-device traffic.
func (r *regions) enterData(elems int) {
	if r.target == TargetDevice {
		r.bytesIn.Add(int64(8 * elems))
	}
}

// updateHost models `acc update host(...)`; the reduction scalars' volumes
// are negligible but counted for completeness.
func (r *regions) updateHost(elems int) {
	if r.target == TargetDevice {
		r.bytesOut.Add(int64(8 * elems))
	}
}

// Chunk is the OpenACC-style port: the shared host chunk under the regions
// row policy.
type Chunk struct {
	*hostchunk.Chunk
	acc *regions
}

var _ driver.Kernels = (*Chunk)(nil)

// New creates the port for the given target; width is the number of host
// threads (host target) or concurrent gangs (device target); <= 0 picks the
// runtime default.
func New(target Target, width int) *Chunk {
	acc := &regions{target: target, team: par.NewTeam(width)}
	return &Chunk{hostchunk.New(acc, hostchunk.Reflective{Rows: acc}), acc}
}

// Name implements driver.Kernels.
func (c *Chunk) Name() string {
	if c.acc.target == TargetDevice {
		return "manual-openacc-gpu"
	}
	return "manual-openacc-cpu"
}

// Target returns the offload target.
func (c *Chunk) Target() Target { return c.acc.target }

// Stats returns the offload accounting counters.
func (c *Chunk) Stats() Stats {
	return Stats{Regions: c.acc.launched.Load(), BytesIn: c.acc.bytesIn.Load(), BytesOut: c.acc.bytesOut.Load()}
}

// Generate implements driver.Kernels; every field enters the data region.
func (c *Chunk) Generate(m *grid.Mesh, states []config.State) error {
	if err := c.Chunk.Generate(m, states); err != nil {
		return err
	}
	c.acc.enterData(c.AllocatedCells())
	return nil
}

// FetchField implements driver.Kernels (an `acc update host` of the whole
// field followed by a host copy).
func (c *Chunk) FetchField(id driver.FieldID) []float64 {
	c.acc.updateHost(c.Field(id).TotalCells())
	return c.Chunk.FetchField(id)
}

// RestoreField implements driver.Kernels: a host write followed by an
// `acc update device` of the field (counted as host→device traffic).
func (c *Chunk) RestoreField(id driver.FieldID, data []float64) {
	c.Chunk.RestoreField(id, data)
	c.acc.enterData(c.Field(id).TotalCells())
}

// Close implements driver.Kernels.
func (c *Chunk) Close() { c.acc.team.Close() }
