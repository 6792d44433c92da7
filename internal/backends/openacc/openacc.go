// Package openacc is the directive-style TeaLeaf port, the analogue of the
// mini-app's OpenACC build. Its defining property in the study is a single
// kernel source that retargets between the host CPU (-ta=multicore) and an
// accelerator (-ta=tesla): here the one chunk recipe
// (internal/backends/chunk) runs under the host policy wrapped so that every
// loop is one offloaded parallel region, executed either on a host thread
// team or on a gang-scheduled device executor with data-region transfer
// accounting.
package openacc

import (
	"sync/atomic"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/chunk"
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

// Stats counts offload activity for the device target.
type Stats struct {
	Regions  int64 // parallel regions launched
	BytesIn  int64 // copyin volume at data-region entry
	BytesOut int64 // copyout volume at data-region exit
}

// regions is the port's policy: the host policy on the team, each launch one
// `acc parallel loop` region, counted, with the device target's transfers
// charged. On the device target For launches are gang-scheduled (guided
// claims standing in for gang scheduling: big early claims like a full wave
// of gangs, small late ones balancing the tail). Alloc is data
// management (`acc enter data create`), not a compute region, so it is not
// counted.
type regions struct {
	*chunk.Host
	target Target
	team   *par.Team // execution resource for both targets

	launched, bytesIn, bytesOut atomic.Int64
}

// For implements chunk.Policy.
func (r *regions) For(name string, win chunk.Window, args []*grid.Field, body chunk.Body) {
	r.launched.Add(1)
	r.Host.For(name, win, args, body)
}

// Reduce implements chunk.Policy: an `acc parallel loop reduction(+:sum)`
// whose scalar comes back with an `acc update host`.
func (r *regions) Reduce(name string, win chunk.Window, args []*grid.Field, body chunk.RedBody) float64 {
	r.launched.Add(1)
	r.updateHost(1)
	return r.Host.Reduce(name, win, args, body)
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

// Chunk is the OpenACC-style port: the chunk recipe under the regions
// policy.
type Chunk struct {
	*chunk.Chunk[*grid.Field]
	acc *regions
}

var _ driver.Kernels = (*Chunk)(nil)

// New creates the port for the given target; width is the number of host
// threads (host target) or concurrent gangs (device target); <= 0 picks the
// runtime default.
func New(target Target, width int) *Chunk {
	team := par.NewTeam(width)
	acc := &regions{Host: chunk.NewHost(team), target: target, team: team}
	acc.Guided = target == TargetDevice
	return &Chunk{chunk.New[*grid.Field](acc, false), acc}
}

// Name implements driver.Kernels.
func (c *Chunk) Name() string {
	if c.acc.target == TargetDevice {
		return "manual-openacc-gpu"
	}
	return "manual-openacc-cpu"
}

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
	f := c.Field(id)
	c.acc.updateHost(f.TotalCells())
	return c.Interior(f.Data)
}

// RestoreField implements driver.Kernels: a host write followed by an
// `acc update device` of the field (counted as host→device traffic).
func (c *Chunk) RestoreField(id driver.FieldID, data []float64) {
	f := c.Field(id)
	c.SetInterior(f.Data, data)
	c.acc.enterData(f.TotalCells())
}

// Close implements driver.Kernels.
func (c *Chunk) Close() { c.acc.team.Close() }
