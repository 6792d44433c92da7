package vis

import (
	"bufio"
	"strconv"
	"strings"
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
)

func mesh(t *testing.T) *grid.Mesh {
	t.Helper()
	m, err := grid.NewMesh(0, 4, 0, 3, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWriteHeaderAndValues(t *testing.T) {
	m := mesh(t)
	data := make([]float64, 12)
	for i := range data {
		data[i] = float64(i) * 0.5
	}
	var b strings.Builder
	if err := Write(&b, m, []Field{{Name: "temperature", Data: data}}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# vtk DataFile Version 2.0",
		"ASCII",
		"DATASET STRUCTURED_POINTS",
		"DIMENSIONS 5 4 1",
		"ORIGIN 0 0 0",
		"SPACING 1 1 1",
		"CELL_DATA 12",
		"SCALARS temperature double 1",
		"LOOKUP_TABLE default",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// All 12 values present in order.
	var got []float64
	sc := bufio.NewScanner(strings.NewReader(out))
	inData := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "LOOKUP_TABLE") {
			inData = true
			continue
		}
		if !inData {
			continue
		}
		for _, tok := range strings.Fields(line) {
			v, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				t.Fatalf("bad value %q", tok)
			}
			got = append(got, v)
		}
	}
	if len(got) != 12 {
		t.Fatalf("parsed %d values, want 12", len(got))
	}
	for i, v := range got {
		if v != data[i] {
			t.Errorf("value %d = %g, want %g", i, v, data[i])
		}
	}
}

func TestWriteMultipleFields(t *testing.T) {
	m := mesh(t)
	f := []Field{
		{Name: "density", Data: make([]float64, 12)},
		{Name: "energy", Data: make([]float64, 12)},
	}
	var b strings.Builder
	if err := Write(&b, m, f); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Count(out, "SCALARS") != 2 {
		t.Errorf("expected 2 scalar sections:\n%s", out)
	}
}

func TestWriteErrors(t *testing.T) {
	m := mesh(t)
	var b strings.Builder
	if err := Write(&b, m, nil); err == nil {
		t.Error("expected error for no fields")
	}
	if err := Write(&b, m, []Field{{Name: "x", Data: make([]float64, 5)}}); err == nil {
		t.Error("expected error for wrong field size")
	}
	if err := Write(&b, m, []Field{{Name: "", Data: make([]float64, 12)}}); err == nil {
		t.Error("expected error for empty name")
	}
}

func TestWriteFile(t *testing.T) {
	m := mesh(t)
	path := t.TempDir() + "/out.vtk"
	if err := WriteFile(path, m, []Field{{Name: "u", Data: make([]float64, 12)}}); err != nil {
		t.Fatal(err)
	}
}
