package kern

import (
	"fmt"
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
)

var benchSink float64

// BenchmarkRowBodies times each body with an SSE2 path (simd: the exported
// body) against its Go reference (go) in the same run. One op is a sweep of
// every interior row of a square mesh whose padded rows, with the chunk
// recipe's two-deep halo, are 130 and 1028 cells wide (126² and 1024²
// interiors). b.SetBytes charges an op the traffic internal/driver/calls.go
// charges the kernel the body serves, so MB/s is the profile's useful
// bandwidth; ns/cell is per interior cell. The plain operator (residual,
// Chebyshev, PPCG) is charged cg_calc_w's traffic and the plain u/r update
// (the jac_block path) cg_calc_ur's, whose reads and writes they match, so
// each reads beside its fused form.
//
//	go test -run '^$' -bench BenchmarkRowBodies ./internal/kern/
func BenchmarkRowBodies(b *testing.B) {
	const d = 2
	for _, stride := range []int{130, 1028} {
		nx := stride - 2*d
		field := func(v float64) []float64 {
			f := make([]float64, stride*stride)
			for i := range f {
				f[i] = v
			}
			return f
		}
		row := func(f []float64, j int) []float64 { return f[(j+d)*stride : (j+d+1)*stride] }
		in := func(f []float64, j int) []float64 { return row(f, j)[d : d+nx] }
		p, w, u, r, mi, z := field(1), field(0), field(1), field(1), field(0.2), field(0)
		kx, ky := field(0.1), field(0.1)
		const alpha, beta = 1e-9, 0.5
		cases := []struct {
			name      string
			call      driver.Call
			simd, ref func(j int, acc float64) float64
		}{
			{"operator", driver.Call{ID: driver.KCGCalcW},
				func(j int, acc float64) float64 {
					OperatorRow(row(w, j), row(p, j), row(p, j+1), row(p, j-1), row(kx, j), row(ky, j), row(ky, j+1), d, nx)
					return acc
				},
				func(j int, acc float64) float64 {
					operatorGo(0, row(w, j), row(p, j), row(p, j+1), row(p, j-1), row(kx, j), row(ky, j), row(ky, j+1), d, nx)
					return acc
				}},
			{"cg_calc_w", driver.Call{ID: driver.KCGCalcW},
				func(j int, acc float64) float64 {
					return OperatorDotRow(acc, row(w, j), row(p, j), row(p, j+1), row(p, j-1), row(kx, j), row(ky, j), row(ky, j+1), d, nx)
				},
				func(j int, acc float64) float64 {
					return operatorDotGo(0, acc, row(w, j), row(p, j), row(p, j+1), row(p, j-1), row(kx, j), row(ky, j), row(ky, j+1), d, nx)
				}},
			{"update_ur", driver.Call{ID: driver.KCGCalcUR},
				func(j int, acc float64) float64 { UpdateUR(in(u, j), in(p, j), in(r, j), in(w, j), alpha); return acc },
				func(j int, acc float64) float64 {
					updateURGo(0, in(u, j), in(p, j), in(r, j), in(w, j), alpha)
					return acc
				}},
			{"cg_calc_ur", driver.Call{ID: driver.KCGCalcUR},
				func(j int, acc float64) float64 {
					return UpdateURDot(acc, in(u, j), in(p, j), in(r, j), in(w, j), alpha)
				},
				func(j int, acc float64) float64 {
					return updateURDotGo(0, acc, in(u, j), in(p, j), in(r, j), in(w, j), alpha)
				}},
			{"cg_calc_ur_jac_diag", driver.Call{ID: driver.KCGCalcUR, Precond: true},
				func(j int, acc float64) float64 {
					return UpdateURZDot(acc, in(u, j), in(p, j), in(r, j), in(w, j), in(mi, j), in(z, j), alpha)
				},
				func(j int, acc float64) float64 {
					return updateURZDotGo(0, acc, in(u, j), in(p, j), in(r, j), in(w, j), in(mi, j), in(z, j), alpha)
				}},
			{"cg_calc_p", driver.Call{ID: driver.KCGCalcP},
				func(j int, acc float64) float64 { XPBY(in(p, j), in(r, j), beta); return acc },
				func(j int, acc float64) float64 { xpbyGo(0, in(p, j), in(r, j), beta); return acc }},
		}
		for _, c := range cases {
			bytes, _ := c.call.ID.Desc().Traffic(int64(nx), int64(nx), &c.call)
			for _, v := range []struct {
				name string
				body func(int, float64) float64
			}{{"simd", c.simd}, {"go", c.ref}} {
				b.Run(fmt.Sprintf("%s/%d/%s", c.name, stride, v.name), func(b *testing.B) {
					b.SetBytes(bytes)
					for i := 0; i < b.N; i++ {
						acc := 0.0
						for j := 0; j < nx; j++ {
							acc = v.body(j, acc)
						}
						benchSink += acc
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nx*nx), "ns/cell")
				})
			}
		}
	}
}
