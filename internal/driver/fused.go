package driver

// FusedWDot, FusedURPrecond, AsFusedWDot and AsFusedURPrecond exist only
// because the benchmark harness's kernel tracer (bench/trace.go) still names
// them; they go with the next change to the benchmark. Every port's CGCalcW
// and CGCalcUR are its one-sweep bodies, no port implements these
// interfaces, and the solver never asks for them, so the helpers return nil.

// FusedWDot is the retired single-sweep w = A p + p·w entry point.
type FusedWDot interface {
	CGCalcWFused() float64
}

// FusedURPrecond is the retired single-sweep u/r update + precondition +
// reduce entry point.
type FusedURPrecond interface {
	CGCalcURFused(alpha float64, precond bool) float64
}

// AsFusedWDot returns nil: no port provides FusedWDot.
func AsFusedWDot(Kernels) FusedWDot { return nil }

// AsFusedURPrecond returns nil: no port provides FusedURPrecond.
func AsFusedURPrecond(Kernels) FusedURPrecond { return nil }
