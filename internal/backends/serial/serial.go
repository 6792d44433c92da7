// Package serial is the reference TeaLeaf port: the shared host chunk
// (internal/backends/hostchunk) run single-threaded, used as the
// correctness baseline every other port is verified against. It corresponds
// to the mini-app's reference (serial Fortran/C) build.
package serial

import (
	"github.com/warwick-hpsc/tealeaf-go/internal/backends/hostchunk"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
)

// Chunk is the serial port: one chunk covering the whole mesh, every row
// loop a direct call, every boundary reflective.
type Chunk struct{ *hostchunk.Chunk }

var _ driver.Kernels = (*Chunk)(nil)

// New creates the serial port.
func New() *Chunk {
	rows := hostchunk.Serial{}
	return &Chunk{hostchunk.New(rows, hostchunk.Reflective{Rows: rows})}
}

// Name implements driver.Kernels.
func (c *Chunk) Name() string { return "manual-serial" }

// Close implements driver.Kernels.
func (c *Chunk) Close() {}
