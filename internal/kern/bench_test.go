package kern

import (
	"fmt"
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
)

var benchSink float64

// BenchmarkRowBodies times each body with an SSE2 path (simd: the exported
// body) against its Go reference (go) in the same run, the fused operator and
// subtraction against the SSE2 operator followed by Sub (two-pass), and
// jac_block's line
// solve three ways: the single-pass solve the factored pair replaced
// (single), the factoring solve SolveInit runs (factor) and the replay on its
// factors ApplyPrecond runs (solve). One op is a sweep of every interior row
// of a square mesh whose padded rows, with the chunk recipe's two-deep halo,
// are 130 and 1028 cells wide (126² and 1024² interiors). b.SetBytes charges
// an op the traffic internal/driver/calls.go charges the kernel the body
// serves, so MB/s is the profile's useful bandwidth; ns/cell is per interior
// cell. The plain operator (PPCG) is charged cg_calc_w's traffic and the
// plain u/r update (the jac_block path) cg_calc_ur's, whose reads and writes
// they match, so each reads beside its fused form; the bodies whose kernel
// makes more than one sweep (the Chebyshev and PPCG updates, the line solve)
// are charged eight bytes for each operand cell they read or write.
//
//	go test -run '^$' -bench BenchmarkRowBodies ./internal/kern/
func BenchmarkRowBodies(b *testing.B) {
	const d = 2
	type variant struct {
		name string
		body func(j int, acc float64) float64
	}
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
		kx, ky, cp, m := field(0.1), field(0.1), field(0), field(0)
		const alpha, beta = 1e-9, 0.5
		table := func(call driver.Call) int64 {
			bytes, _ := call.ID.Desc().Traffic(int64(nx), int64(nx), &call)
			return bytes
		}
		operands := func(n int64) int64 { return 8 * n * int64(nx*nx) }
		pair := func(simd, ref func(j int, acc float64) float64) []variant {
			return []variant{{"simd", simd}, {"go", ref}}
		}
		cases := []struct {
			name     string
			bytes    int64
			variants []variant
		}{
			{"operator", table(driver.Call{ID: driver.KCGCalcW}), pair(
				func(j int, acc float64) float64 {
					OperatorRow(row(w, j), row(p, j), row(p, j+1), row(p, j-1), row(kx, j), row(ky, j), row(ky, j+1), d, nx)
					return acc
				},
				func(j int, acc float64) float64 {
					operatorGo(0, row(w, j), row(p, j), row(p, j+1), row(p, j-1), row(kx, j), row(ky, j), row(ky, j+1), d, nx)
					return acc
				})},
			{"cg_calc_w", table(driver.Call{ID: driver.KCGCalcW}), pair(
				func(j int, acc float64) float64 {
					return OperatorDotRow(acc, row(w, j), row(p, j), row(p, j+1), row(p, j-1), row(kx, j), row(ky, j), row(ky, j+1), d, nx)
				},
				func(j int, acc float64) float64 {
					return operatorDotGo(0, acc, row(w, j), row(p, j), row(p, j+1), row(p, j-1), row(kx, j), row(ky, j), row(ky, j+1), d, nx)
				})},
			{"calc_residual", table(driver.Call{ID: driver.KCalcResidual}), append(pair(
				func(j int, acc float64) float64 {
					OperatorSubRow(row(w, j), row(p, j), row(p, j+1), row(p, j-1), row(kx, j), row(ky, j), row(ky, j+1), row(u, j), row(r, j), d, nx)
					return acc
				},
				func(j int, acc float64) float64 {
					operatorSubGo(0, row(w, j), row(p, j), row(p, j+1), row(p, j-1), row(kx, j), row(ky, j), row(ky, j+1), row(u, j), row(r, j), d, nx)
					return acc
				}), variant{"two-pass", func(j int, acc float64) float64 {
				OperatorRow(row(w, j), row(p, j), row(p, j+1), row(p, j-1), row(kx, j), row(ky, j), row(ky, j+1), d, nx)
				Sub(in(r, j), in(u, j), in(w, j))
				return acc
			}})},
			{"update_ur", table(driver.Call{ID: driver.KCGCalcUR}), pair(
				func(j int, acc float64) float64 { UpdateUR(in(u, j), in(p, j), in(r, j), in(w, j), alpha); return acc },
				func(j int, acc float64) float64 {
					updateURGo(0, in(u, j), in(p, j), in(r, j), in(w, j), alpha)
					return acc
				})},
			{"cg_calc_ur", table(driver.Call{ID: driver.KCGCalcUR}), pair(
				func(j int, acc float64) float64 {
					return UpdateURDot(acc, in(u, j), in(p, j), in(r, j), in(w, j), alpha)
				},
				func(j int, acc float64) float64 {
					return updateURDotGo(0, acc, in(u, j), in(p, j), in(r, j), in(w, j), alpha)
				})},
			{"cg_calc_ur_jac_diag", table(driver.Call{ID: driver.KCGCalcUR, Precond: true}), pair(
				func(j int, acc float64) float64 {
					return UpdateURZDot(acc, in(u, j), in(p, j), in(r, j), in(w, j), in(mi, j), in(z, j), alpha)
				},
				func(j int, acc float64) float64 {
					return updateURZDotGo(0, acc, in(u, j), in(p, j), in(r, j), in(w, j), in(mi, j), in(z, j), alpha)
				})},
			{"cg_calc_p", table(driver.Call{ID: driver.KCGCalcP}), pair(
				func(j int, acc float64) float64 { XPBY(in(p, j), in(r, j), beta); return acc },
				func(j int, acc float64) float64 { xpbyGo(0, in(p, j), in(r, j), beta); return acc })},
			{"cheby_calc_sd_u", operands(5), pair(
				func(j int, acc float64) float64 { ChebyRow(in(z, j), in(u, j), in(r, j), alpha, beta); return acc },
				func(j int, acc float64) float64 { chebyGo(0, in(z, j), in(u, j), in(r, j), alpha, beta); return acc })},
			{"ppcg_inner_update", operands(7), pair(
				func(j int, acc float64) float64 {
					PPCGInnerRow(in(z, j), in(p, j), in(r, j), in(w, j), alpha, beta)
					return acc
				},
				func(j int, acc float64) float64 {
					ppcgInnerGo(0, in(z, j), in(p, j), in(r, j), in(w, j), alpha, beta)
					return acc
				})},
			{"block_solve", operands(6), []variant{
				{"single", func(j int, acc float64) float64 {
					thomasRow(row(z, j), row(r, j), row(kx, j), row(ky, j), row(ky, j+1), row(cp, j), row(m, j), d, nx)
					return acc
				}},
				{"factor", func(j int, acc float64) float64 {
					ThomasFactorRow(row(z, j), row(r, j), row(kx, j), row(ky, j), row(ky, j+1), row(cp, j), row(m, j), d, nx)
					return acc
				}},
				{"solve", func(j int, acc float64) float64 {
					ThomasSolveRow(row(z, j), row(r, j), row(kx, j), row(cp, j), row(m, j), d, nx)
					return acc
				}},
			}},
		}
		for _, c := range cases {
			for _, v := range c.variants {
				b.Run(fmt.Sprintf("%s/%d/%s", c.name, stride, v.name), func(b *testing.B) {
					b.SetBytes(c.bytes)
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
