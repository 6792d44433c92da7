package driver

// TilingSnapshot is a point-in-time copy of a port's lazy-execution
// counters — the observable effect of cross-iteration loop-chain tiling.
// Flushes counts chain executions (each chain sweeps its tile slab once, so
// on a tiled context Flushes approximates achieved full-field sweeps);
// LoopsExecuted counts the loops those chains contained (what an untiled
// run would have swept). The ratio LoopsExecuted/Flushes is therefore the
// sweep compression the tiling achieved.
type TilingSnapshot struct {
	// Tiling reports whether the port's execution layer defers and tiles
	// loop chains at all; the counters below accumulate either way.
	Tiling bool
	// TileX, TileY are the resolved tile extents in cells.
	TileX, TileY int

	LoopsEnqueued int64 // loops submitted to the execution layer
	LoopsExecuted int64 // loops actually run (enqueued minus discarded)
	Flushes       int64 // chain executions (tiled sweeps)
	Tiles         int64 // tile visits across all flushed chains
	Chains        int64 // flushes that contained more than one loop
	ChainedLoops  int64 // loops executed as part of multi-loop chains
	MaxChainLen   int64 // longest chain flushed
	Discards      int64 // queued chains dropped by rollback
}

// Sub returns the counter deltas s - prev (shape fields kept from s), for
// attributing activity to one run on a long-lived port.
func (s TilingSnapshot) Sub(prev TilingSnapshot) TilingSnapshot {
	d := s
	d.LoopsEnqueued -= prev.LoopsEnqueued
	d.LoopsExecuted -= prev.LoopsExecuted
	d.Flushes -= prev.Flushes
	d.Tiles -= prev.Tiles
	d.Chains -= prev.Chains
	d.ChainedLoops -= prev.ChainedLoops
	d.Discards -= prev.Discards
	return d
}

// Add accumulates o's counters into s (shape fields kept from s, the longer
// chain kept), for summing the ranks of one world.
func (s *TilingSnapshot) Add(o TilingSnapshot) {
	s.LoopsEnqueued += o.LoopsEnqueued
	s.LoopsExecuted += o.LoopsExecuted
	s.Flushes += o.Flushes
	s.Tiles += o.Tiles
	s.Chains += o.Chains
	s.ChainedLoops += o.ChainedLoops
	s.MaxChainLen = max(s.MaxChainLen, o.MaxChainLen)
	s.Discards += o.Discards
}

// TilingReporter is implemented by ports whose execution layer queues loops
// and flushes them as skew-tiled chains (the ops port). The snapshot feeds
// the profiler's gauge section and teaserve's /metrics.
type TilingReporter interface {
	TilingSnapshot() TilingSnapshot
}

// AsTilingReporter returns k's tiling-statistics capability, or nil when k
// does not provide it. Wrappers do not forward it: read it from the raw
// port. The SPMD runner, which has TilingSnapshot whether or not its rank
// sets tile, reports through HasTilingReporter.
func AsTilingReporter(k Kernels) TilingReporter {
	if cr, ok := k.(interface{ HasTilingReporter() bool }); ok && !cr.HasTilingReporter() {
		return nil
	}
	f, _ := k.(TilingReporter)
	return f
}
