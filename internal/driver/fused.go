package driver

// FusedWDot, FusedURPrecond, FieldRestorer and their As* helpers exist only
// because the benchmark harness's kernel tracer (bench/trace.go) still names
// them; they go with the next change to the benchmark. No port implements
// the fused interfaces (every port's CGCalcW and CGCalcUR are its one-sweep
// bodies), and every port is a FieldRestorer (RestoreField is a Kernels
// method).

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

// FieldRestorer is the write half of Kernels.FetchField.
type FieldRestorer interface {
	RestoreField(id FieldID, data []float64)
}

// AsFieldRestorer returns k: every port restores fields.
func AsFieldRestorer(k Kernels) FieldRestorer { return k }
