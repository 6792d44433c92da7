// Package grid provides the structured-mesh substrate used by every TeaLeaf
// port: cell-centred 2D fields with halo (ghost) layers stored in flat,
// row-major slices, plus the mesh geometry (cell sizes and coordinates).
//
// Conventions follow the original TeaLeaf mini-app: the interior cells of a
// field are addressed (1..Nx, 1..Ny) in the Fortran version; here they are
// addressed (0..Nx-1, 0..Ny-1) and the halo extends Depth cells beyond the
// interior on every side, so valid indices are (-Depth..Nx+Depth-1).
package grid

import "fmt"

// DefaultHalo is the halo depth used by TeaLeaf. The deepest stencil access
// in any kernel (PPCG steps and the matrix-free operator applied inside halo
// cells) needs two ghost layers.
const DefaultHalo = 2

// Field is a 2D cell-centred scalar field with a halo of ghost cells.
//
// Data is stored row-major: rows are contiguous in x, so iterating j in the
// outer loop and i in the inner loop walks memory linearly, matching how the
// reference mini-app (and every cache-aware port of it) orders its loops.
type Field struct {
	Nx, Ny int // interior extent in cells
	Depth  int // halo depth on each side
	Stride int // row stride = Nx + 2*Depth
	Data   []float64
}

// NewField allocates a zeroed field with the given interior extent and halo
// depth. It panics on non-positive extents: a zero-size field is always a
// programming error in this code base.
func NewField(nx, ny, depth int) *Field {
	if nx <= 0 || ny <= 0 {
		panic(fmt.Sprintf("grid: invalid field extent %dx%d", nx, ny))
	}
	if depth < 0 {
		panic(fmt.Sprintf("grid: negative halo depth %d", depth))
	}
	stride := nx + 2*depth
	return &Field{
		Nx:     nx,
		Ny:     ny,
		Depth:  depth,
		Stride: stride,
		Data:   make([]float64, stride*(ny+2*depth)),
	}
}

// New allocates a field with the default TeaLeaf halo depth of 2.
func New(nx, ny int) *Field { return NewField(nx, ny, DefaultHalo) }

// Idx returns the flat index of cell (i, j). Interior cells are
// (0..Nx-1, 0..Ny-1); halo cells use negative indices or indices >= the
// extent, down to -Depth and up to Nx+Depth-1.
func (f *Field) Idx(i, j int) int {
	return (j+f.Depth)*f.Stride + (i + f.Depth)
}

// At returns the value of cell (i, j).
func (f *Field) At(i, j int) float64 { return f.Data[f.Idx(i, j)] }

// Set assigns the value of cell (i, j).
func (f *Field) Set(i, j int, v float64) { f.Data[f.Idx(i, j)] = v }

// Add adds v to cell (i, j).
func (f *Field) Add(i, j int, v float64) { f.Data[f.Idx(i, j)] += v }

// Row returns the slice of a full row j spanning [-Depth, Nx+Depth).
// Mutating the returned slice mutates the field.
func (f *Field) Row(j int) []float64 {
	start := (j + f.Depth) * f.Stride
	return f.Data[start : start+f.Stride]
}

// InteriorRow returns the slice of row j restricted to interior columns
// [0, Nx). Mutating the returned slice mutates the field.
func (f *Field) InteriorRow(j int) []float64 {
	start := f.Idx(0, j)
	return f.Data[start : start+f.Nx]
}

// Fill sets every cell, halo included, to v.
func (f *Field) Fill(v float64) {
	for i := range f.Data {
		f.Data[i] = v
	}
}

// Zero clears every cell, halo included.
func (f *Field) Zero() {
	clear(f.Data)
}

// CopyFrom copies src into f. The fields must have identical shape.
func (f *Field) CopyFrom(src *Field) {
	if f.Nx != src.Nx || f.Ny != src.Ny || f.Depth != src.Depth {
		panic(fmt.Sprintf("grid: CopyFrom shape mismatch: %dx%d/%d vs %dx%d/%d",
			f.Nx, f.Ny, f.Depth, src.Nx, src.Ny, src.Depth))
	}
	copy(f.Data, src.Data)
}

// Clone returns a deep copy of f.
func (f *Field) Clone() *Field {
	g := NewField(f.Nx, f.Ny, f.Depth)
	copy(g.Data, f.Data)
	return g
}

// SameShape reports whether two fields have identical extent and halo depth.
func (f *Field) SameShape(g *Field) bool {
	return f.Nx == g.Nx && f.Ny == g.Ny && f.Depth == g.Depth
}

// TotalCells returns the number of allocated cells including the halo.
func (f *Field) TotalCells() int { return len(f.Data) }

// MaxAbsDiff returns the largest absolute difference between interior cells
// of f and g. The fields must have the same interior extent (halo depths may
// differ).
func (f *Field) MaxAbsDiff(g *Field) float64 {
	if f.Nx != g.Nx || f.Ny != g.Ny {
		panic("grid: MaxAbsDiff extent mismatch")
	}
	var m float64
	for j := 0; j < f.Ny; j++ {
		fr, gr := f.InteriorRow(j), g.InteriorRow(j)
		for i := range fr {
			d := fr[i] - gr[i]
			if d < 0 {
				d = -d
			}
			if d > m {
				m = d
			}
		}
	}
	return m
}

// Range describes a rectangular iteration space over cells,
// inclusive of From and exclusive of To, in each dimension.
type Range struct {
	FromX, ToX int
	FromY, ToY int
}

// Interior returns the iteration range covering the interior cells.
func (f *Field) Interior() Range {
	return Range{FromX: 0, ToX: f.Nx, FromY: 0, ToY: f.Ny}
}

// Expand grows the range by d cells on every side.
func (r Range) Expand(d int) Range {
	return Range{FromX: r.FromX - d, ToX: r.ToX + d, FromY: r.FromY - d, ToY: r.ToY + d}
}

// Cells returns the number of cells in the range (0 if empty).
func (r Range) Cells() int {
	w, h := r.ToX-r.FromX, r.ToY-r.FromY
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// Intersect returns the overlap of two ranges (possibly empty).
func (r Range) Intersect(o Range) Range {
	return Range{
		FromX: max(r.FromX, o.FromX), ToX: min(r.ToX, o.ToX),
		FromY: max(r.FromY, o.FromY), ToY: min(r.ToY, o.ToY),
	}
}

// Empty reports whether the range contains no cells.
func (r Range) Empty() bool { return r.Cells() == 0 }

func (r Range) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", r.FromX, r.ToX, r.FromY, r.ToY)
}
