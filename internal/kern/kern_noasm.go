//go:build !amd64 || race

package kern

// Without kern_amd64.s (another architecture, or a race build, whose
// detector cannot see loads and stores made in assembly) no cell is done
// ahead of the Go reference: every row runs on it from cell 0.

func operatorDotSIMD(acc float64, dst, sr, su, sd, kx, ky, kyu []float64, d, nx int) (int, float64) {
	return 0, acc
}

func operatorSubSIMD(w, sr, su, sd, kx, ky, kyu, a, dst []float64, d, nx int) int { return 0 }

func updateURDotSIMD(acc float64, u, p, r, w []float64, alpha float64) (int, float64) {
	return 0, acc
}

func updateURZDotSIMD(acc float64, u, p, r, w, mi, z []float64, alpha float64) (int, float64) {
	return 0, acc
}

func xpbySIMD(p, src []float64, beta float64) int { return 0 }

func chebySIMD(sd, u, src []float64, alpha, beta float64) int { return 0 }

func ppcgInnerSIMD(z, sd, rt, w []float64, alpha, beta float64) int { return 0 }
