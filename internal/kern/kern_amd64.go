//go:build !race

package kern

// The SSE2 bodies of kern_amd64.s run cells [0, n) of a row, n even and at
// least two, a pair of cells per instruction; the wrappers below hand them
// the row's even-length prefix and return its length, which is where the Go
// reference takes over. Each wrapper first cuts every operand to the exact
// length the Go reference would, so an operand too short for the row panics
// before either path writes a cell, and the pointers it passes address only
// cells those views hold.

//go:noescape
func operatorDotSSE2(acc float64, dst, s, su, sd, kx, ky, kyu *float64, n int) float64

//go:noescape
func updateURDotSSE2(acc float64, u, p, r, w *float64, alpha float64, n int) float64

//go:noescape
func updateURZDotSSE2(acc float64, u, p, r, w, mi, z *float64, alpha float64, n int) float64

//go:noescape
func xpbySSE2(p, src *float64, beta float64, n int)

//go:noescape
func operatorSubSSE2(w, s, su, sd, kx, ky, kyu, a, dst *float64, n int)

//go:noescape
func chebySSE2(sd, u, src *float64, alpha, beta float64, n int)

//go:noescape
func ppcgInnerSSE2(z, sd, rt, w *float64, alpha, beta float64, n int)

// operatorDotSIMD cuts a halo'd row's operands to the cells the operator
// reads for interior cells [0, nx): src from cell -1 to cell nx, kx from cell
// 0 to cell nx, and cells [0, nx) of the rest.
func operatorDotSIMD(acc float64, dst, sr, su, sd, kx, ky, kyu []float64, d, nx int) (int, float64) {
	if nx < 2 {
		return 0, acc
	}
	dc, s, uc, dnc := dst[d:d+nx], sr[d-1:d+1+nx], su[d:d+nx], sd[d:d+nx]
	kxc, ky0, ky1 := kx[d:d+1+nx], ky[d:d+nx], kyu[d:d+nx]
	n := nx &^ 1
	return n, operatorDotSSE2(acc, &dc[0], &s[0], &uc[0], &dnc[0], &kxc[0], &ky0[0], &ky1[0], n)
}

// operatorSubSIMD cuts its operands as operatorDotSIMD does, a and dst to
// cells [0, nx).
func operatorSubSIMD(w, sr, su, sd, kx, ky, kyu, a, dst []float64, d, nx int) int {
	if nx < 2 {
		return 0
	}
	wc, s, uc, dnc := w[d:d+nx], sr[d-1:d+1+nx], su[d:d+nx], sd[d:d+nx]
	kxc, ky0, ky1, ac, dc := kx[d:d+1+nx], ky[d:d+nx], kyu[d:d+nx], a[d:d+nx], dst[d:d+nx]
	n := nx &^ 1
	operatorSubSSE2(&wc[0], &s[0], &uc[0], &dnc[0], &kxc[0], &ky0[0], &ky1[0], &ac[0], &dc[0], n)
	return n
}

func updateURDotSIMD(acc float64, u, p, r, w []float64, alpha float64) (int, float64) {
	n := len(u)
	p, r, w = p[:n], r[:n], w[:n]
	if n < 2 {
		return 0, acc
	}
	n &^= 1
	return n, updateURDotSSE2(acc, &u[0], &p[0], &r[0], &w[0], alpha, n)
}

func updateURZDotSIMD(acc float64, u, p, r, w, mi, z []float64, alpha float64) (int, float64) {
	n := len(u)
	p, r, w, mi, z = p[:n], r[:n], w[:n], mi[:n], z[:n]
	if n < 2 {
		return 0, acc
	}
	n &^= 1
	return n, updateURZDotSSE2(acc, &u[0], &p[0], &r[0], &w[0], &mi[0], &z[0], alpha, n)
}

func xpbySIMD(p, src []float64, beta float64) int {
	n := len(p)
	src = src[:n]
	if n < 2 {
		return 0
	}
	n &^= 1
	xpbySSE2(&p[0], &src[0], beta, n)
	return n
}

func chebySIMD(sd, u, src []float64, alpha, beta float64) int {
	n := len(sd)
	u, src = u[:n], src[:n]
	if n < 2 {
		return 0
	}
	n &^= 1
	chebySSE2(&sd[0], &u[0], &src[0], alpha, beta, n)
	return n
}

func ppcgInnerSIMD(z, sd, rt, w []float64, alpha, beta float64) int {
	n := len(sd)
	z, rt, w = z[:n], rt[:n], w[:n]
	if n < 2 {
		return 0
	}
	n &^= 1
	ppcgInnerSSE2(&z[0], &sd[0], &rt[0], &w[0], alpha, beta, n)
	return n
}
