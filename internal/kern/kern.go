// Package kern holds the per-row kernel bodies of the TeaLeaf operations,
// each written once: the one chunk recipe behind every version
// (internal/backends/chunk, through the At forms in flat.go) calls them on
// row segments of its fields. The stencil, dot and u/r bodies are 4-wide
// unrolled loops over exact-length shifted sub-slices; every body re-slices
// its operands to a common length up front, which lets the compiler prove all
// indexing in bounds and drop the per-element checks.
//
// Reductions thread a single sequential accumulator through the row
// (acc += t0; acc += t1; ...), never a widened partial, so summation
// order — and therefore the floating-point result — is bitwise identical to
// the rolled loops the serial golden baselines pin.
//
// The CG hot path and the Chebyshev and PPCG updates have SSE2 bodies on
// amd64 (kern_amd64.s, the GOAMD64=v1 baseline, so there is no CPU
// detection): OperatorDotRow, UpdateURDot, UpdateURZDot and XPBY;
// OperatorRow and UpdateUR, which run their fused forms' assembly and drop
// the sum; OperatorSubRow (the residual and cheby_calc_r), ChebyRow and
// PPCGInnerRow. Each does the even-length prefix of its row a pair of cells
// at a time and its Go reference loop finishes the odd cell. Every lane does
// the Go body's IEEE operations in the Go body's order, with no fused
// multiply-add; the operator's diagonal, for one, is
// (((1+kx1)+kx0)+ky1)+ky0. A fused reduction adds each pair's two products to
// the one accumulator low lane first, then high, which is the Go body's
// left-to-right order. So the two paths agree bit for bit wherever the result
// is not a NaN (an SSE NaN's payload depends on operand order). Builds for
// other architectures, and race builds, whose detector cannot see loads and
// stores made in assembly, run the Go reference on every cell.
package kern

// OperatorRow evaluates one interior row of dst = A src for the matrix-free
// five-point conduction operator. All slices are full halo'd rows
// (src row j, j+1, j-1; kx row j; ky rows j, j+1), d is the halo depth and
// nx the interior width. On amd64 its assembly is OperatorDotRow's, whose
// sum it drops.
func OperatorRow(dst, sr, su, sd, kx, ky, kyu []float64, d, nx int) {
	i, _ := operatorDotSIMD(0, dst, sr, su, sd, kx, ky, kyu, d, nx)
	operatorGo(i, dst, sr, su, sd, kx, ky, kyu, d, nx)
}

// operatorGo is OperatorRow's Go reference on interior cells [i0, nx).
func operatorGo(i0 int, dst, sr, su, sd, kx, ky, kyu []float64, d, nx int) {
	if nx <= 0 {
		return
	}
	// Shifted exact-length views: index i is interior cell i everywhere.
	dc := dst[d : d+nx]
	sl := sr[d-1 : d-1+nx]
	sc := sr[d : d+nx]
	srr := sr[d+1 : d+1+nx]
	uc := su[d : d+nx]
	dnc := sd[d : d+nx]
	kx0 := kx[d : d+nx]
	kx1 := kx[d+1 : d+1+nx]
	ky0 := ky[d : d+nx]
	ky1 := kyu[d : d+nx]
	i := i0
	for ; i+4 <= nx; i += 4 {
		dc[i] = (1+kx1[i]+kx0[i]+ky1[i]+ky0[i])*sc[i] -
			(kx1[i]*srr[i] + kx0[i]*sl[i]) - (ky1[i]*uc[i] + ky0[i]*dnc[i])
		dc[i+1] = (1+kx1[i+1]+kx0[i+1]+ky1[i+1]+ky0[i+1])*sc[i+1] -
			(kx1[i+1]*srr[i+1] + kx0[i+1]*sl[i+1]) - (ky1[i+1]*uc[i+1] + ky0[i+1]*dnc[i+1])
		dc[i+2] = (1+kx1[i+2]+kx0[i+2]+ky1[i+2]+ky0[i+2])*sc[i+2] -
			(kx1[i+2]*srr[i+2] + kx0[i+2]*sl[i+2]) - (ky1[i+2]*uc[i+2] + ky0[i+2]*dnc[i+2])
		dc[i+3] = (1+kx1[i+3]+kx0[i+3]+ky1[i+3]+ky0[i+3])*sc[i+3] -
			(kx1[i+3]*srr[i+3] + kx0[i+3]*sl[i+3]) - (ky1[i+3]*uc[i+3] + ky0[i+3]*dnc[i+3])
	}
	for ; i < nx; i++ {
		dc[i] = (1+kx1[i]+kx0[i]+ky1[i]+ky0[i])*sc[i] -
			(kx1[i]*srr[i] + kx0[i]*sl[i]) - (ky1[i]*uc[i] + ky0[i]*dnc[i])
	}
}

// OperatorDotRow is OperatorRow fused with cg_calc_w's reduction: it sets
// dst = A src on the row and accumulates src·dst onto acc cell by cell, left
// to right, returning the new accumulator. The result is OperatorRow followed
// by DotAcc(acc, src, dst) on the row's interior, bit for bit.
func OperatorDotRow(acc float64, dst, sr, su, sd, kx, ky, kyu []float64, d, nx int) float64 {
	i, acc := operatorDotSIMD(acc, dst, sr, su, sd, kx, ky, kyu, d, nx)
	return operatorDotGo(i, acc, dst, sr, su, sd, kx, ky, kyu, d, nx)
}

// operatorDotGo is OperatorDotRow's Go reference on interior cells [i0, nx).
func operatorDotGo(i0 int, acc float64, dst, sr, su, sd, kx, ky, kyu []float64, d, nx int) float64 {
	if nx <= 0 {
		return acc
	}
	dc := dst[d : d+nx]
	sl := sr[d-1 : d-1+nx]
	sc := sr[d : d+nx]
	srr := sr[d+1 : d+1+nx]
	uc := su[d : d+nx]
	dnc := sd[d : d+nx]
	kx0 := kx[d : d+nx]
	kx1 := kx[d+1 : d+1+nx]
	ky0 := ky[d : d+nx]
	ky1 := kyu[d : d+nx]
	cell := func(i int) float64 {
		v := (1+kx1[i]+kx0[i]+ky1[i]+ky0[i])*sc[i] -
			(kx1[i]*srr[i] + kx0[i]*sl[i]) - (ky1[i]*uc[i] + ky0[i]*dnc[i])
		dc[i] = v
		return sc[i] * v
	}
	i := i0
	for ; i+4 <= nx; i += 4 {
		acc += cell(i)
		acc += cell(i + 1)
		acc += cell(i + 2)
		acc += cell(i + 3)
	}
	for ; i < nx; i++ {
		acc += cell(i)
	}
	return acc
}

// OperatorSubRow is OperatorRow fused with a subtraction: it sets w = A src
// on the row and then dst = a - w cell by cell, so dst may alias a (the
// Chebyshev residual update r -= w) and the result is OperatorRow followed by
// a dst = a - w pass, bit for bit. a and dst are full halo'd rows like the
// rest.
func OperatorSubRow(w, sr, su, sd, kx, ky, kyu, a, dst []float64, d, nx int) {
	i := operatorSubSIMD(w, sr, su, sd, kx, ky, kyu, a, dst, d, nx)
	operatorSubGo(i, w, sr, su, sd, kx, ky, kyu, a, dst, d, nx)
}

// operatorSubGo is OperatorSubRow's Go reference on interior cells [i0, nx).
func operatorSubGo(i0 int, w, sr, su, sd, kx, ky, kyu, a, dst []float64, d, nx int) {
	if nx <= 0 {
		return
	}
	wc := w[d : d+nx]
	sl := sr[d-1 : d-1+nx]
	sc := sr[d : d+nx]
	srr := sr[d+1 : d+1+nx]
	uc := su[d : d+nx]
	dnc := sd[d : d+nx]
	kx0 := kx[d : d+nx]
	kx1 := kx[d+1 : d+1+nx]
	ky0 := ky[d : d+nx]
	ky1 := kyu[d : d+nx]
	ac := a[d : d+nx]
	dc := dst[d : d+nx]
	for i := i0; i < nx; i++ {
		v := (1+kx1[i]+kx0[i]+ky1[i]+ky0[i])*sc[i] -
			(kx1[i]*srr[i] + kx0[i]*sl[i]) - (ky1[i]*uc[i] + ky0[i]*dnc[i])
		wc[i] = v
		dc[i] = ac[i] - v
	}
}

// DotAcc accumulates a·b onto acc element by element and returns the new
// accumulator. Callers thread one accumulator through all rows so the global
// summation order matches the rolled reference exactly.
func DotAcc(acc float64, a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	a, b = a[:n], b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		acc += a[i] * b[i]
		acc += a[i+1] * b[i+1]
		acc += a[i+2] * b[i+2]
		acc += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		acc += a[i] * b[i]
	}
	return acc
}

// UpdateUR applies the CG solution/residual update u += alpha*p, r -= alpha*w
// over one interior row (all slices pre-offset to the interior, same length).
// On amd64 its assembly is UpdateURDot's, whose sum it drops.
func UpdateUR(u, p, r, w []float64, alpha float64) {
	i, _ := updateURDotSIMD(0, u, p, r, w, alpha)
	updateURGo(i, u, p, r, w, alpha)
}

// updateURGo is UpdateUR's Go reference on cells [i0, len(u)).
func updateURGo(i0 int, u, p, r, w []float64, alpha float64) {
	n := len(u)
	p, r, w = p[:n], r[:n], w[:n]
	i := i0
	for ; i+4 <= n; i += 4 {
		u[i] += alpha * p[i]
		u[i+1] += alpha * p[i+1]
		u[i+2] += alpha * p[i+2]
		u[i+3] += alpha * p[i+3]
		r[i] -= alpha * w[i]
		r[i+1] -= alpha * w[i+1]
		r[i+2] -= alpha * w[i+2]
		r[i+3] -= alpha * w[i+3]
	}
	for ; i < n; i++ {
		u[i] += alpha * p[i]
		r[i] -= alpha * w[i]
	}
}

// UpdateURDot is UpdateUR fused with unpreconditioned cg_calc_ur's
// reduction: it accumulates the updated r·r onto acc cell by cell, left to
// right, and returns the new accumulator. The result is UpdateUR followed by
// DotAcc(acc, r, r), bit for bit.
func UpdateURDot(acc float64, u, p, r, w []float64, alpha float64) float64 {
	i, acc := updateURDotSIMD(acc, u, p, r, w, alpha)
	return updateURDotGo(i, acc, u, p, r, w, alpha)
}

// updateURDotGo is UpdateURDot's Go reference on cells [i0, len(u)).
func updateURDotGo(i0 int, acc float64, u, p, r, w []float64, alpha float64) float64 {
	n := len(u)
	p, r, w = p[:n], r[:n], w[:n]
	cell := func(i int) float64 {
		u[i] += alpha * p[i]
		r[i] -= alpha * w[i]
		return r[i] * r[i]
	}
	i := i0
	for ; i+4 <= n; i += 4 {
		acc += cell(i)
		acc += cell(i + 1)
		acc += cell(i + 2)
		acc += cell(i + 3)
	}
	for ; i < n; i++ {
		acc += cell(i)
	}
	return acc
}

// UpdateURZDot is UpdateUR fused with the jac_diag preconditioner and
// cg_calc_ur's reduction: after the update it sets z = mi*r and accumulates
// r·z onto acc cell by cell, left to right, returning the new accumulator.
// The result is UpdateUR, Mul(z, mi, r), then DotAcc(acc, r, z), bit for bit.
func UpdateURZDot(acc float64, u, p, r, w, mi, z []float64, alpha float64) float64 {
	i, acc := updateURZDotSIMD(acc, u, p, r, w, mi, z, alpha)
	return updateURZDotGo(i, acc, u, p, r, w, mi, z, alpha)
}

// updateURZDotGo is UpdateURZDot's Go reference on cells [i0, len(u)).
func updateURZDotGo(i0 int, acc float64, u, p, r, w, mi, z []float64, alpha float64) float64 {
	n := len(u)
	p, r, w, mi, z = p[:n], r[:n], w[:n], mi[:n], z[:n]
	cell := func(i int) float64 {
		u[i] += alpha * p[i]
		r[i] -= alpha * w[i]
		z[i] = mi[i] * r[i]
		return r[i] * z[i]
	}
	i := i0
	for ; i+4 <= n; i += 4 {
		acc += cell(i)
		acc += cell(i + 1)
		acc += cell(i + 2)
		acc += cell(i + 3)
	}
	for ; i < n; i++ {
		acc += cell(i)
	}
	return acc
}

// JacobiRow runs one interior row of the Jacobi sweep
// u = (u0 + k·un_neighbours) / diag, accumulating the row's L1 change onto
// acc in strict left-to-right order, and returns the new accumulator. Rows
// are full halo'd rows as in OperatorRow.
func JacobiRow(acc float64, ur, unr, unu, und, u0r, kx, ky, kyu []float64, d, nx int) float64 {
	if nx <= 0 {
		return acc
	}
	uc := ur[d : d+nx]
	nl := unr[d-1 : d-1+nx]
	nc := unr[d : d+nx]
	nr := unr[d+1 : d+1+nx]
	nu := unu[d : d+nx]
	nd := und[d : d+nx]
	u0 := u0r[d : d+nx]
	kx0 := kx[d : d+nx]
	kx1 := kx[d+1 : d+1+nx]
	ky0 := ky[d : d+nx]
	ky1 := kyu[d : d+nx]
	cell := func(i int) float64 {
		num := u0[i] + kx1[i]*nr[i] + kx0[i]*nl[i] + ky1[i]*nu[i] + ky0[i]*nd[i]
		v := num / (1 + kx1[i] + kx0[i] + ky1[i] + ky0[i])
		uc[i] = v
		dv := v - nc[i]
		if dv < 0 {
			dv = -dv
		}
		return dv
	}
	i := 0
	for ; i+4 <= nx; i += 4 {
		acc += cell(i)
		acc += cell(i + 1)
		acc += cell(i + 2)
		acc += cell(i + 3)
	}
	for ; i < nx; i++ {
		acc += cell(i)
	}
	return acc
}

// Add sets dst += a over one interior row (the PPCG z += sd steps).
func Add(dst, a []float64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] += a[i]
	}
}

// Mul sets dst = a * b over one interior row: the jac_diag preconditioner
// z = mi * r.
func Mul(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

// Div sets dst = a / b over one interior row (energy1 = u / density).
func Div(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] / b[i]
	}
}

// CopyDot starts CG on one interior row: p = src, accumulating r·src onto
// acc in left-to-right order.
func CopyDot(acc float64, p, src, r []float64) float64 {
	src, r = src[:len(p)], r[:len(p)]
	for i := range p {
		p[i] = src[i]
		acc += r[i] * src[i]
	}
	return acc
}

// XPBY updates the CG search direction on one interior row:
// p = src + beta*p.
func XPBY(p, src []float64, beta float64) {
	i := xpbySIMD(p, src, beta)
	xpbyGo(i, p, src, beta)
}

// xpbyGo is XPBY's Go reference on cells [i0, len(p)).
func xpbyGo(i0 int, p, src []float64, beta float64) {
	src = src[:len(p)]
	for i := i0; i < len(p); i++ {
		p[i] = src[i] + beta*p[i]
	}
}

// ChebyInitRow starts the Chebyshev iteration on one interior row:
// sd = src/theta, u += sd.
func ChebyInitRow(sd, u, src []float64, theta float64) {
	u, src = u[:len(sd)], src[:len(sd)]
	for i := range sd {
		sd[i] = src[i] / theta
		u[i] += sd[i]
	}
}

// ChebyRow is the Chebyshev direction update on one interior row:
// sd = alpha*sd + beta*src, u += sd.
func ChebyRow(sd, u, src []float64, alpha, beta float64) {
	i := chebySIMD(sd, u, src, alpha, beta)
	chebyGo(i, sd, u, src, alpha, beta)
}

// chebyGo is ChebyRow's Go reference on cells [i0, len(sd)).
func chebyGo(i0 int, sd, u, src []float64, alpha, beta float64) {
	u, src = u[:len(sd)], src[:len(sd)]
	for i := i0; i < len(sd); i++ {
		sd[i] = alpha*sd[i] + beta*src[i]
		u[i] += sd[i]
	}
}

// PPCGInitRow begins a polynomial-preconditioner application on one
// interior row: rt = r, z = 0, sd = r/theta.
func PPCGInitRow(rt, z, sd, r []float64, theta float64) {
	rt, z, sd = rt[:len(r)], z[:len(r)], sd[:len(r)]
	for i := range r {
		rt[i] = r[i]
		z[i] = 0
		sd[i] = r[i] / theta
	}
}

// PPCGInnerRow is one inner smoothing step on one interior row: z += sd,
// rt -= w, sd = alpha*sd + beta*rt.
func PPCGInnerRow(z, sd, rt, w []float64, alpha, beta float64) {
	i := ppcgInnerSIMD(z, sd, rt, w, alpha, beta)
	ppcgInnerGo(i, z, sd, rt, w, alpha, beta)
}

// ppcgInnerGo is PPCGInnerRow's Go reference on cells [i0, len(sd)).
func ppcgInnerGo(i0 int, z, sd, rt, w []float64, alpha, beta float64) {
	z, rt, w = z[:len(sd)], rt[:len(sd)], w[:len(sd)]
	for i := i0; i < len(sd); i++ {
		z[i] += sd[i]
		rt[i] -= w[i]
		sd[i] = alpha*sd[i] + beta*rt[i]
	}
}

// InitRow is the pointwise part of tea_leaf_common_init on one full halo'd
// row: u = u0 = energy*density, and w = density (or its reciprocal when
// recip is set), the conduction coefficient source.
func InitRow(u, u0, w, energy, density []float64, recip bool) {
	u0, w, energy, density = u0[:len(u)], w[:len(u)], energy[:len(u)], density[:len(u)]
	for i := range u {
		u[i] = energy[i] * density[i]
		u0[i] = u[i]
	}
	if !recip {
		copy(w, density)
		return
	}
	for i := range w {
		w[i] = 1 / density[i]
	}
}

// FaceCoefRow computes the face conduction coefficients of row j, scaled by
// rx/ry, over cells [-1, nx+1) from the coefficient source rows j (w) and
// j-1 (wd). Rows are full halo'd rows as in OperatorRow.
func FaceCoefRow(kx, ky, w, wd []float64, rx, ry float64, d, nx int) {
	n := nx + 2
	kx, ky = kx[d-1:d-1+n], ky[d-1:d-1+n]
	wl, wc, wdn := w[d-2:d-2+n], w[d-1:d-1+n], wd[d-1:d-1+n]
	for i := range kx {
		kx[i] = rx * (wl[i] + wc[i]) / (2 * wl[i] * wc[i])
		ky[i] = ry * (wdn[i] + wc[i]) / (2 * wdn[i] * wc[i])
	}
}

// DiagInvRow stores the reciprocal of the operator diagonal on one interior
// row: the jac_diag preconditioner's coefficients.
func DiagInvRow(mi, kx, ky, kyu []float64, d, nx int) {
	mi, kx0, kx1, ky0, ky1 := mi[d:d+nx], kx[d:d+nx], kx[d+1:d+1+nx], ky[d:d+nx], kyu[d:d+nx]
	for i := range mi {
		mi[i] = 1 / (1 + kx1[i] + kx0[i] + ky1[i] + ky0[i])
	}
}

// ThomasFactorRow applies the line-Jacobi block preconditioner to one mesh
// row and keeps the factors: the row's tridiagonal slice of the operator
// (sub/super-diagonal -kx, full diagonal) is solved exactly with the Thomas
// algorithm, z = T⁻¹ r, leaving the forward sweep's cp and its reciprocal
// pivots in m for ThomasSolveRow, which then solves the same T for another r
// with no division but the first cell's: m[0] is that cell's diagonal b0
// itself, since the sweep divides by it. T is symmetric and strictly
// diagonally dominant with a positive diagonal, hence SPD, so CG theory
// holds. T depends only on kx and ky, so a solve factors once and replays.
// Rows are full halo'd rows as in OperatorRow.
func ThomasFactorRow(z, r, kx, ky, kyu, cp, m []float64, d, nx int) {
	if nx <= 0 {
		return
	}
	z, r, cp, m = z[d:d+nx], r[d:d+nx], cp[d:d+nx], m[d:d+nx]
	kx0, kx1, ky0, ky1 := kx[d:d+nx], kx[d+1:d+1+nx], ky[d:d+nx], kyu[d:d+nx]
	// Forward sweep, z holding the sweep's right-hand side.
	b0 := 1 + kx1[0] + kx0[0] + ky1[0] + ky0[0]
	m[0] = b0
	cp[0] = -kx1[0] / b0
	z[0] = r[0] / b0
	for i := 1; i < nx; i++ {
		a := -kx0[i]
		mi := 1 / (1 + kx1[i] + kx0[i] + ky1[i] + ky0[i] - a*cp[i-1])
		m[i] = mi
		cp[i] = -kx1[i] * mi
		z[i] = (r[i] - a*z[i-1]) * mi
	}
	backSubstitute(z, cp)
}

// ThomasSolveRow is ThomasFactorRow's solve on factors it left in cp and m
// for the same kx and ky: the same IEEE operations in the same order, so the
// same z bit for bit, with a multiply by m where the factoring divided.
func ThomasSolveRow(z, r, kx, cp, m []float64, d, nx int) {
	if nx <= 0 {
		return
	}
	z, r, cp, m, kx0 := z[d:d+nx], r[d:d+nx], cp[d:d+nx], m[d:d+nx], kx[d:d+nx]
	z[0] = r[0] / m[0]
	for i := 1; i < nx; i++ {
		a := -kx0[i]
		z[i] = (r[i] - a*z[i-1]) * m[i]
	}
	backSubstitute(z, cp)
}

// backSubstitute finishes a Thomas solve in place: z holds the forward
// sweep's right-hand side on entry and the solution on return.
func backSubstitute(z, cp []float64) {
	cp = cp[:len(z)]
	for i := len(z) - 2; i >= 0; i-- {
		z[i] -= cp[i] * z[i+1]
	}
}

// VolMass accumulates one interior row of the field_summary volume and mass
// totals, cell by cell.
func VolMass(vol, mass float64, density []float64, cellVol float64) (float64, float64) {
	for _, d := range density {
		vol += cellVol
		mass += d * cellVol
	}
	return vol, mass
}

// EnergyTemp accumulates one interior row of the field_summary internal
// energy and temperature totals, cell by cell.
func EnergyTemp(ie, temp float64, density, energy, u []float64, cellVol float64) (float64, float64) {
	energy, u = energy[:len(density)], u[:len(density)]
	for i, d := range density {
		ie += d * energy[i] * cellVol
		temp += u[i] * cellVol
	}
	return ie, temp
}
