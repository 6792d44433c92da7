// Package vis writes simulation state as legacy-VTK structured-points
// files, the analogue of the mini-app's visit output (tea_visit): cell
// data over the uniform mesh, loadable by ParaView/VisIt. Files are plain
// ASCII VTK 2.0, the most portable dialect.
package vis

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
)

// Field is one named cell-data scalar array in row-major interior order
// (nx*ny values, row 0 first).
type Field struct {
	Name string
	Data []float64
}

// Write emits a legacy VTK STRUCTURED_POINTS dataset with the given cell
// fields. Every field must have exactly m.Nx*m.Ny values.
func Write(w io.Writer, m *grid.Mesh, fields []Field) error {
	if len(fields) == 0 {
		return fmt.Errorf("vis: no fields to write")
	}
	cells := m.Nx * m.Ny
	for _, f := range fields {
		if len(f.Data) != cells {
			return fmt.Errorf("vis: field %q has %d values, mesh has %d cells", f.Name, len(f.Data), cells)
		}
		if f.Name == "" {
			return fmt.Errorf("vis: field with empty name")
		}
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# vtk DataFile Version 2.0")
	fmt.Fprintln(bw, "TeaLeaf-Go field output")
	fmt.Fprintln(bw, "ASCII")
	fmt.Fprintln(bw, "DATASET STRUCTURED_POINTS")
	// VTK dimensions are point counts; cells are (dims-1) per axis.
	fmt.Fprintf(bw, "DIMENSIONS %d %d 1\n", m.Nx+1, m.Ny+1)
	fmt.Fprintf(bw, "ORIGIN %g %g 0\n", m.XMin, m.YMin)
	fmt.Fprintf(bw, "SPACING %g %g 1\n", m.Dx, m.Dy)
	fmt.Fprintf(bw, "CELL_DATA %d\n", cells)
	for _, f := range fields {
		fmt.Fprintf(bw, "SCALARS %s double 1\n", f.Name)
		fmt.Fprintln(bw, "LOOKUP_TABLE default")
		for j := 0; j < m.Ny; j++ {
			row := f.Data[j*m.Nx : (j+1)*m.Nx]
			for i, v := range row {
				if i > 0 {
					bw.WriteByte(' ')
				}
				fmt.Fprintf(bw, "%.12g", v)
			}
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// WriteFile is Write to a new file at path.
func WriteFile(path string, m *grid.Mesh, fields []Field) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("vis: %w", err)
	}
	defer f.Close()
	if err := Write(f, m, fields); err != nil {
		return err
	}
	return f.Close()
}
