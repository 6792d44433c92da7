package kern

// The At forms run the row bodies that read neighbouring cells on row-major
// flat fields, rows stride cells apart: [lo, hi) is the flat index range of a
// run of cells along one stride-1 line. That is the addressing of the chunk
// recipe (internal/backends/chunk), whose fields are single padded arrays
// under every policy, and whose device blocks and threads own part of a line,
// not all of it.

// win is cells [lo-1, hi+1) of f: a row operand whose interior starts at
// d = 1.
func win(f []float64, lo, hi int) []float64 { return f[lo-1 : hi+1] }

// OperatorAt is OperatorRow on cells [lo, hi): dst = A src.
func OperatorAt(dst, src, kx, ky []float64, stride, lo, hi int) {
	OperatorRow(win(dst, lo, hi), win(src, lo, hi), win(src, lo+stride, hi+stride), win(src, lo-stride, hi-stride),
		win(kx, lo, hi), win(ky, lo, hi), win(ky, lo+stride, hi+stride), 1, hi-lo)
}

// OperatorSubAt is OperatorSubRow on cells [lo, hi): w = A src, then
// dst = a - w.
func OperatorSubAt(w, src, a, dst, kx, ky []float64, stride, lo, hi int) {
	OperatorSubRow(win(w, lo, hi), win(src, lo, hi), win(src, lo+stride, hi+stride), win(src, lo-stride, hi-stride),
		win(kx, lo, hi), win(ky, lo, hi), win(ky, lo+stride, hi+stride), win(a, lo, hi), win(dst, lo, hi), 1, hi-lo)
}

// OperatorDotAt is OperatorDotRow on cells [lo, hi): dst = A src, returning
// acc plus src·dst.
func OperatorDotAt(acc float64, dst, src, kx, ky []float64, stride, lo, hi int) float64 {
	return OperatorDotRow(acc, win(dst, lo, hi), win(src, lo, hi), win(src, lo+stride, hi+stride), win(src, lo-stride, hi-stride),
		win(kx, lo, hi), win(ky, lo, hi), win(ky, lo+stride, hi+stride), 1, hi-lo)
}

// JacobiAt is JacobiRow on cells [lo, hi).
func JacobiAt(acc float64, u, un, u0, kx, ky []float64, stride, lo, hi int) float64 {
	return JacobiRow(acc, win(u, lo, hi), win(un, lo, hi), win(un, lo+stride, hi+stride), win(un, lo-stride, hi-stride),
		win(u0, lo, hi), win(kx, lo, hi), win(ky, lo, hi), win(ky, lo+stride, hi+stride), 1, hi-lo)
}

// DiagInvAt is DiagInvRow on cells [lo, hi).
func DiagInvAt(mi, kx, ky []float64, stride, lo, hi int) {
	DiagInvRow(win(mi, lo, hi), win(kx, lo, hi), win(ky, lo, hi), win(ky, lo+stride, hi+stride), 1, hi-lo)
}

// FaceCoefAt fills the face coefficients of cells [lo, hi). FaceCoefRow
// covers cells [d-1, d+nx+1) of its rows, which is the run for d = 2 and nx
// two short of its length.
func FaceCoefAt(kx, ky, w []float64, rx, ry float64, stride, lo, hi int) {
	FaceCoefRow(win(kx, lo, hi), win(ky, lo, hi), win(w, lo, hi), win(w, lo-stride, hi-stride), rx, ry, 2, hi-lo-2)
}

// ThomasFactorAt is ThomasFactorRow on cells [lo, hi), which must be a whole
// mesh row.
func ThomasFactorAt(z, r, kx, ky, cp, m []float64, stride, lo, hi int) {
	ThomasFactorRow(win(z, lo, hi), win(r, lo, hi), win(kx, lo, hi), win(ky, lo, hi), win(ky, lo+stride, hi+stride),
		win(cp, lo, hi), win(m, lo, hi), 1, hi-lo)
}

// ThomasSolveAt is ThomasSolveRow on cells [lo, hi), which must be a whole
// mesh row.
func ThomasSolveAt(z, r, kx, cp, m []float64, lo, hi int) {
	ThomasSolveRow(win(z, lo, hi), win(r, lo, hi), win(kx, lo, hi), win(cp, lo, hi), win(m, lo, hi), 1, hi-lo)
}
