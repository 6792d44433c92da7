package kokkos

import (
	"testing"
	"testing/quick"

	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
)

func spaces(t *testing.T) map[string]ExecSpace {
	t.Helper()
	ss := map[string]ExecSpace{
		"Serial": Serial{},
		"OpenMP": NewOpenMP(4),
		"Cuda":   NewCuda(1, simgpu.Dim2{X: 8, Y: 4}),
	}
	t.Cleanup(func() {
		for _, s := range ss {
			s.Close()
		}
	})
	return ss
}

func TestDefaultLayouts(t *testing.T) {
	if (Serial{}).DefaultLayout() != LayoutRight {
		t.Error("Serial must default to LayoutRight")
	}
	if NewCuda(1, simgpu.Dim2{}).DefaultLayout() != LayoutLeft {
		t.Error("Cuda must default to LayoutLeft")
	}
}

func TestParallelForAllSpaces(t *testing.T) {
	for name, s := range spaces(t) {
		s := s
		t.Run(name, func(t *testing.T) {
			v := NewView(s, "v", 7, 9)
			ParallelFor(s, "fill", MDRange{0, 7, 0, 9}, func(i0, i1 int) {
				v.Set(i0, i1, float64(10*i0+i1))
			})
			for i0 := 0; i0 < 7; i0++ {
				for i1 := 0; i1 < 9; i1++ {
					if got := v.At(i0, i1); got != float64(10*i0+i1) {
						t.Fatalf("v(%d,%d) = %g", i0, i1, got)
					}
				}
			}
		})
	}
}

func TestParallelReduceAllSpaces(t *testing.T) {
	for name, s := range spaces(t) {
		s := s
		t.Run(name, func(t *testing.T) {
			v := NewView(s, "v", 13, 11)
			ParallelFor(s, "fill", MDRange{0, 13, 0, 11}, func(i0, i1 int) { v.Set(i0, i1, 2) })
			sum := TeamReduce(s, "sum", MDRange{0, 13, 0, 11}, func(o, lo, hi int, l *float64) {
				for _, x := range segment(v, o, lo, hi) {
					*l += x
				}
			})
			if sum != 2*13*11 {
				t.Errorf("sum = %g, want %d", sum, 2*13*11)
			}
		})
	}
}

// TestDeepCopyLayoutConversion: a LayoutRight mirror round-trips through a
// LayoutLeft device view element-for-element.
func TestDeepCopyLayoutConversion(t *testing.T) {
	cuda := NewCuda(1, simgpu.Dim2{})
	defer cuda.Close()
	dev := NewView(cuda, "d", 5, 4)
	host := CreateMirror(dev)
	if host.layout == dev.layout {
		t.Fatal("mirror unexpectedly shares the device layout")
	}
	for i0 := 0; i0 < 5; i0++ {
		for i1 := 0; i1 < 4; i1++ {
			host.Set(i0, i1, float64(i0*100+i1))
		}
	}
	DeepCopy(dev, host)
	back := CreateMirror(dev)
	DeepCopy(back, dev)
	for i0 := 0; i0 < 5; i0++ {
		for i1 := 0; i1 < 4; i1++ {
			if back.At(i0, i1) != host.At(i0, i1) {
				t.Fatalf("round-trip (%d,%d): %g != %g", i0, i1, back.At(i0, i1), host.At(i0, i1))
			}
		}
	}
}

// TestLayoutIndexProperty: for any in-range index pair, the two layouts
// address distinct storage consistently (quick-check of the index maps).
func TestLayoutIndexProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		n0 := int(a%7) + 2
		n1 := int(b%7) + 2
		right := NewView(Serial{}, "r", n0, n1)
		left := newView(Serial{}, "l", LayoutLeft, n0, n1)
		k := 0.0
		for i0 := 0; i0 < n0; i0++ {
			for i1 := 0; i1 < n1; i1++ {
				right.Set(i0, i1, k)
				left.Set(i0, i1, k)
				k++
			}
		}
		for i0 := 0; i0 < n0; i0++ {
			for i1 := 0; i1 < n1; i1++ {
				if right.At(i0, i1) != left.At(i0, i1) {
					return false
				}
			}
		}
		// Stride-1 direction differs between layouts.
		return right.idx(0, 1) == 1 && left.idx(1, 0) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// segmentExtents do not divide the block edges used below: one cell, one
// short of a block, exactly one, one over, and two blocks and a bit, so the
// sweeps include 1xN and Nx1 ranges and ranges narrower than a block.
var segmentExtents = []int{1, 2, 63, 64, 65, 130}

// segmentSpaces are every execution space, the threaded one on a
// multi-thread team and the device ones on a multi-worker device.
func segmentSpaces(t *testing.T) map[string]ExecSpace {
	t.Helper()
	cuda := func(block simgpu.Dim2) *Cuda {
		return &Cuda{dev: simgpu.NewDevice(simgpu.Props{Name: "test", Parallelism: 3}), block: block}
	}
	ss := map[string]ExecSpace{
		"Serial":     Serial{},
		"OpenMP":     NewOpenMP(3),
		"Cuda-64x8":  cuda(simgpu.Dim2{X: 64, Y: 8}),
		"Cuda-256x1": cuda(simgpu.Dim2{X: 256, Y: 1}),
	}
	t.Cleanup(func() {
		for _, s := range ss {
			s.Close()
		}
	})
	return ss
}

// segment is elements [lo, hi) of line outer of v read through Data: the
// operand a TeamFor / TeamReduce functor's (outer, lo, hi) names, row outer
// under LayoutRight and column outer under LayoutLeft.
func segment(v *View, outer, lo, hi int) []float64 {
	line := v.n1
	if v.layout == LayoutLeft {
		line = v.n0
	}
	return v.Data()[outer*line+lo : outer*line+hi]
}

// TestSegmentAddressesTheStrideOneLine: under either layout a segment is the
// contiguous storage of the points At reaches along the stride-1 index.
func TestSegmentAddressesTheStrideOneLine(t *testing.T) {
	const n0, n1 = 5, 7
	for _, layout := range []Layout{LayoutRight, LayoutLeft} {
		v := newView(Serial{}, "v", layout, n0, n1)
		for i0 := 0; i0 < n0; i0++ {
			for i1 := 0; i1 < n1; i1++ {
				v.Set(i0, i1, float64(10*i0+i1))
			}
		}
		outers, span := n0, n1 // LayoutRight: lines are rows
		at := func(outer, k int) float64 { return v.At(outer, k) }
		if layout == LayoutLeft {
			outers, span = n1, n0
			at = func(outer, k int) float64 { return v.At(k, outer) }
		}
		for outer := 0; outer < outers; outer++ {
			seg := segment(v, outer, 1, span-1)
			if len(seg) != span-2 {
				t.Fatalf("%v: segment of line %d has %d elements, want %d", layout, outer, len(seg), span-2)
			}
			for k := range seg {
				if seg[k] != at(outer, k+1) {
					t.Fatalf("%v: segment %d element %d = %g, At gives %g", layout, outer, k, seg[k], at(outer, k+1))
				}
			}
		}
	}
}

// TestDataMatchesAt: Data is the flat allocation, element (i0, i1) at
// i0*n1 + i1 under LayoutRight and i0 + i1*n0 under LayoutLeft.
func TestDataMatchesAt(t *testing.T) {
	const n0, n1 = 5, 7
	for _, layout := range []Layout{LayoutRight, LayoutLeft} {
		v := newView(Serial{}, "v", layout, n0, n1)
		for i0 := 0; i0 < n0; i0++ {
			for i1 := 0; i1 < n1; i1++ {
				v.Set(i0, i1, float64(10*i0+i1))
			}
		}
		data := v.Data()
		if len(data) != n0*n1 {
			t.Fatalf("%v: Data has %d elements, want %d", layout, len(data), n0*n1)
		}
		for i0 := 0; i0 < n0; i0++ {
			for i1 := 0; i1 < n1; i1++ {
				idx := i0*n1 + i1
				if layout == LayoutLeft {
					idx = i0 + i1*n0
				}
				if data[idx] != v.At(i0, i1) {
					t.Fatalf("%v: Data()[%d] = %g, At(%d, %d) = %g", layout, idx, data[idx], i0, i1, v.At(i0, i1))
				}
			}
		}
	}
}

// TestTeamPolicyMatchesPerPoint writes the same stencil as a per-point
// MDRange functor and as a team functor over segments, in every space and so
// under both layouts, and the field must agree bit for bit. The team dot
// product of the result must equal the serial sum: the operands are small
// multiples of 1/4, so every grouping of the sum is exact.
func TestTeamPolicyMatchesPerPoint(t *testing.T) {
	// stencil takes its neighbours by index, not by direction along the line,
	// so both forms evaluate one expression.
	stencil := func(c, i1p, i1m, i0p, i0m float64) float64 {
		return 4.25*c - (i1p + 0.5*i1m) - (0.25*i0p + i0m)
	}
	for name, space := range segmentSpaces(t) {
		for _, e0 := range segmentExtents {
			for _, e1 := range segmentExtents {
				src := NewView(space, "src", e0+2, e1+2)
				perPoint, perSeg := NewView(space, "per_point", e0+2, e1+2), NewView(space, "per_seg", e0+2, e1+2)
				for i0 := 0; i0 < e0+2; i0++ {
					for i1 := 0; i1 < e1+2; i1++ {
						src.Set(i0, i1, float64((31*i0+i1)%29))
					}
				}
				p := MDRange{B0: 1, E0: 1 + e0, B1: 1, E1: 1 + e1}
				ParallelFor(space, "per_point", p, func(i0, i1 int) {
					perPoint.Set(i0, i1, stencil(src.At(i0, i1), src.At(i0, i1+1), src.At(i0, i1-1), src.At(i0+1, i1), src.At(i0-1, i1)))
				})
				want := 0.0
				for i0 := p.B0; i0 < p.E0; i0++ {
					for i1 := p.B1; i1 < p.E1; i1++ {
						want += src.At(i0, i1) * perPoint.At(i0, i1)
					}
				}
				rows := src.layout == LayoutRight // lines are rows: along is i1
				TeamFor(space, "per_seg", p, func(o, lo, hi int) {
					dst, c := segment(perSeg, o, lo, hi), segment(src, o, lo-1, hi+1)
					next, prev := segment(src, o+1, lo, hi), segment(src, o-1, lo, hi)
					for k := range dst {
						if rows {
							dst[k] = stencil(c[k+1], c[k+2], c[k], next[k], prev[k])
						} else {
							dst[k] = stencil(c[k+1], next[k], prev[k], c[k+2], c[k])
						}
					}
				})
				got := TeamReduce(space, "per_seg_dot", p, func(o, lo, hi int, l *float64) {
					a, b := segment(src, o, lo, hi), segment(perSeg, o, lo, hi)
					for k := range a {
						*l += a[k] * b[k]
					}
				})
				if got != want {
					t.Errorf("%s %dx%d: team sum %v, serial %v", name, e0, e1, got, want)
				}
				for i0 := 0; i0 < e0+2; i0++ {
					for i1 := 0; i1 < e1+2; i1++ {
						if g, w := perSeg.At(i0, i1), perPoint.At(i0, i1); g != w {
							t.Fatalf("%s %dx%d: (%d,%d) team %x, per-point %x", name, e0, e1, i0, i1, g, w)
						}
					}
				}
			}
		}
	}
}
