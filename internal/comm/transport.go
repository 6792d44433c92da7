package comm

// This file defines the pluggable transport seam of the runtime: every
// point-to-point payload a Rank sends is routed through the World's
// Transport, so the same SPMD program runs unchanged over in-process
// channels (chanTransport, the NewWorld default) or over real sockets
// between OS processes (socketTransport, via NewSocketWorld / JoinWorld).
// Collectives stay transport-agnostic too: in a single-process world they
// use the shared-scratch rank-ordered combine in comm.go; in a distributed
// world they are rebuilt from point-to-point messages (dist.go) with the
// same ascending-rank combination order, so reductions stay bitwise
// identical across transports.

// Transport delivers point-to-point messages between ranks. Implementations
// live in this package (the interface's method signatures use the internal
// message type on purpose: a transport is a routing fabric for the runtime,
// not a public codec). All methods must be safe for concurrent use by every
// local rank.
type Transport interface {
	// Deliver enqueues msg for rank dst. In-process delivery cannot fail;
	// a socket transport fails once it is closed or the world is torn down.
	// Payload buffer ownership passes to the transport: in-process, the
	// receiver recycles it; over a socket, the sender's transport releases
	// it back to the pool once the peer acknowledges the frame.
	Deliver(dst int, msg message) error
	// Close releases the transport's resources (listeners, connections,
	// background goroutines). Idempotent.
	Close() error
	// Stats snapshots the transport's wire counters; all-zero for the
	// in-process transport.
	Stats() TransportStats
}

// TransportStats are the cumulative wire counters of a transport, the raw
// material for the fleet/transport metrics (reconnects, heartbeat misses,
// bytes on wire) the serving layer publishes.
type TransportStats struct {
	FramesSent      uint64 // data+control frames written to the wire
	FramesRecv      uint64 // frames read and CRC-validated off the wire
	BytesSent       uint64
	BytesRecv       uint64
	Dials           uint64 // successful connection establishments
	Reconnects      uint64 // successful dials after the first, per link
	Retransmits     uint64 // data frames replayed from the retain buffer
	DupsDropped     uint64 // replayed frames the receiver had already seen
	FrameCRCErrors  uint64 // frames rejected by the wire CRC-32C trailer
	HeartbeatMisses uint64 // liveness-window expiries observed by the monitor
}

// chanTransport is the in-process transport: delivery is a mailbox append.
// It is the NewWorld default and preserves the pre-transport behaviour (and
// allocation profile) of the runtime exactly.
type chanTransport struct{ w *World }

// Deliver implements Transport.
func (t chanTransport) Deliver(dst int, msg message) error {
	t.w.boxes[dst].put(msg)
	return nil
}

// Close implements Transport.
func (t chanTransport) Close() error { return nil }

// Stats implements Transport.
func (t chanTransport) Stats() TransportStats { return TransportStats{} }

// deliver routes one message through the world's transport. A delivery
// failure (only possible on remote transports: transport closed, world
// aborted) panics on the sending rank, surfacing through Run's recovery as
// a RankError exactly like any other comm failure.
func (w *World) deliver(dst int, msg message) {
	if err := w.tr.Deliver(dst, msg); err != nil {
		panic(err)
	}
}

// WireStats returns the transport's cumulative wire counters (all zero for
// an in-process world).
func (w *World) WireStats() TransportStats { return w.tr.Stats() }

// Close releases the world's transport (listeners, connections, heartbeat
// goroutines). In-process worlds need no Close; socket worlds should be
// closed once Run returns. Idempotent.
func (w *World) Close() error { return w.tr.Close() }

// EnableProcessExit makes fault-injected process kills (ActKillProc) call
// os.Exit instead of panicking the rank. Worker processes in a fleet enable
// it so a killproc fault is a genuine process death their supervisor must
// detect; in-process worlds leave it off so tests do not kill the test
// binary.
func (w *World) EnableProcessExit() { w.procExit = true }
