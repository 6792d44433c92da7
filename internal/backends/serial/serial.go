// Package serial is the reference TeaLeaf port: the one chunk recipe
// (internal/backends/chunk) under the host policy with no thread team, used
// as the correctness baseline every other port is verified against. It
// corresponds to the mini-app's reference (serial Fortran/C) build.
package serial

import (
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/chunk"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
)

// Chunk is the serial port: one chunk covering the whole mesh, every loop a
// direct call, every boundary reflective.
type Chunk struct{ *chunk.Chunk[*grid.Field] }

var _ driver.Kernels = (*Chunk)(nil)

// New creates the serial port.
func New() *Chunk { return &Chunk{chunk.New[*grid.Field](chunk.NewHost(nil), false)} }

// Name implements driver.Kernels.
func (c *Chunk) Name() string { return "manual-serial" }

// Close implements driver.Kernels.
func (c *Chunk) Close() {}

// FetchField implements driver.Kernels: the fields are the host's to read.
func (c *Chunk) FetchField(id driver.FieldID) []float64 { return c.Interior(c.Field(id).Data) }

// RestoreField implements driver.Kernels: the write-path inverse of
// FetchField, used by checkpoint rollback.
func (c *Chunk) RestoreField(id driver.FieldID, data []float64) {
	c.SetInterior(c.Field(id).Data, data)
}
