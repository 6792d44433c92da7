// Package kokkosport is TeaLeaf re-engineered on the Kokkos-like template
// layer (internal/kokkos), the analogue of the paper's Kokkos builds: the one
// chunk recipe (internal/backends/chunk) under a chunk.Policy over an
// execution space. Every field is a rank-2 View (index 0 the mesh row, 1 the
// column) whose layout follows the space — LayoutRight on the host spaces,
// LayoutLeft on the device space, so there the chunk's stride-1 lines are mesh
// columns — and every kernel, the initial state's included, is a functor run
// in the space: team-policy functors (TeamFor / TeamReduce) over the segments
// of a line, halo faces and line solves included. Launch arguments are
// resolved through View.Data, and the host sees a field only through the
// canonical mirror and deep copy.
package kokkosport

import (
	"strings"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/chunk"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/kokkos"
)

// Chunk is the Kokkos port: one chunk, fields as space-resident Views.
type Chunk struct {
	*chunk.Chunk[*kokkos.View]
	space kokkos.ExecSpace
	name  string
}

var _ driver.Kernels = (*Chunk)(nil)

// New creates the port on the given execution space. The port owns the
// space and closes it.
func New(space kokkos.ExecSpace) *Chunk {
	c := chunk.New[*kokkos.View](&policy{space: space}, space.DefaultLayout() == kokkos.LayoutLeft)
	return &Chunk{c, space, "kokkos-" + strings.ToLower(space.Name())}
}

// Name implements driver.Kernels.
func (c *Chunk) Name() string { return c.name }

// Close implements driver.Kernels.
func (c *Chunk) Close() { c.space.Close() }

// FetchField implements driver.Kernels: mirror + deep_copy + interior
// extraction, the canonical Kokkos read-back.
func (c *Chunk) FetchField(id driver.FieldID) []float64 {
	return c.Interior(mirror(c.Field(id)).Data()) // the mirror is LayoutRight
}

// RestoreField implements driver.Kernels: mirror + deep_copy down, patch the
// interior on the host mirror, deep_copy back — the canonical Kokkos
// write-back (the read-back's inverse).
func (c *Chunk) RestoreField(id driver.FieldID, data []float64) {
	v := c.Field(id)
	host := mirror(v) // preserve halo cells around the patched interior
	c.SetInterior(host.Data(), data)
	kokkos.DeepCopy(v, host)
}

// mirror is a host mirror of v holding a deep copy of it.
func mirror(v *kokkos.View) *kokkos.View {
	host := kokkos.CreateMirror(v)
	kokkos.DeepCopy(host, v)
	return host
}

// policy is the Kokkos layer: NewView in the space and team-policy functors
// over a window's segments. line is the flat
// distance between the views' stride-1 lines; a is the launch's resolved
// storage, reused by every launch.
type policy struct {
	space kokkos.ExecSpace
	line  int
	a     [][]float64
}

// Alloc implements chunk.Policy.
func (p *policy) Alloc(n, rows, cols int) []*kokkos.View {
	f := make([]*kokkos.View, n)
	for k := range f {
		f[k] = kokkos.NewView(p.space, "field", rows, cols)
	}
	p.line = cols
	if p.space.DefaultLayout() == kokkos.LayoutLeft {
		p.line = rows
	}
	return f
}

// data resolves the launch's views to their flat storage.
func (p *policy) data(args []*kokkos.View) [][]float64 {
	p.a = p.a[:0]
	for _, v := range args {
		p.a = append(p.a, v.Data())
	}
	return p.a
}

// rangeOf is the MDRange over a window.
func rangeOf(win chunk.Window) kokkos.MDRange {
	return kokkos.MDRange{B0: win.Y0, E0: win.Y1, B1: win.X0, E1: win.X1}
}

// For implements chunk.Policy with kokkos.TeamFor: segment [lo, hi) of
// line outer is flat [outer*line+lo, outer*line+hi).
func (p *policy) For(name string, win chunk.Window, args []*kokkos.View, body chunk.Body) {
	a := p.data(args)
	kokkos.TeamFor(p.space, name, rangeOf(win), func(outer, lo, hi int) {
		body(a, outer*p.line+lo, outer*p.line+hi)
	})
}

// Reduce implements chunk.Policy with kokkos.TeamReduce.
func (p *policy) Reduce(name string, win chunk.Window, args []*kokkos.View, body chunk.RedBody) float64 {
	a := p.data(args)
	return kokkos.TeamReduce(p.space, name, rangeOf(win), func(outer, lo, hi int, lsum *float64) {
		*lsum = body(a, outer*p.line+lo, outer*p.line+hi, *lsum)
	})
}
