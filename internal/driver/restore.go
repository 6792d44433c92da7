package driver

// FieldRestorer is the optional write-path twin of Kernels.FetchField: a
// port that implements it can overwrite a field's interior from a row-major
// snapshot, which is what checkpoint rollback and restart-from-file need.
// Distributed ports scatter the slab back to their chunks; device ports
// upload to device memory. The caller is responsible for refreshing the
// field's halo afterwards (RestoreField itself only writes the interior).
type FieldRestorer interface {
	// RestoreField overwrites the interior of the named field with data
	// (nx*ny elements, row 0 first — the exact layout FetchField returns).
	RestoreField(id FieldID, data []float64)
}

// CapabilityReporter lets wrappers that embed Kernels (e.g. Instrumented)
// report whether the wrapped port really implements FieldRestorer. A
// wrapper necessarily has RestoreField in its method set whether or not its
// inner port does, so a bare type assertion on the wrapper would always
// succeed; AsFieldRestorer consults this interface to see through it.
type CapabilityReporter interface {
	HasFieldRestorer() bool
}

// AsFieldRestorer returns k's field-restore capability, or nil when k (or,
// for a wrapper, the port it delegates to) does not provide it.
func AsFieldRestorer(k Kernels) FieldRestorer {
	f, ok := k.(FieldRestorer)
	if !ok {
		return nil
	}
	if cr, ok := k.(CapabilityReporter); ok && !cr.HasFieldRestorer() {
		return nil
	}
	return f
}
