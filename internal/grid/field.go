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

// TotalCells returns the number of allocated cells including the halo.
func (f *Field) TotalCells() int { return len(f.Data) }
