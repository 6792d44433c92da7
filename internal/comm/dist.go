package comm

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// This file rebuilds the collectives from point-to-point messages for
// distributed worlds, where no shared reduction scratch exists. The
// combination is gather-to-root, combine in ascending rank order (the exact
// loop the in-process Allreduce runs), then release — so a reduction is
// bitwise identical whether the world lives in one process or spans many.
//
// One behavioural difference is deliberate: a distributed collective counts
// as ONE communication operation on every rank, where the in-process
// implementations count their internal barriers (two ops per allreduce).
// Fault schedules addressed by op number therefore fire at different points
// on the two transports; schedules meant for a fleet should be written
// against the distributed op sequence.

// Reserved tags of the internal collective messages. User tags must be
// non-negative; every existing port satisfies this.
const (
	tagGather  = -2
	tagRelease = -3
)

// sendScalar ships one float64 to dst on an internal tag: no op counting, no
// fault-injector consultation (wire faults act at the frame layer), no
// retransmission backup (there is no shared memory to carry one through).
func (r *Rank) sendScalar(dst, tag int, v float64, crc uint32) {
	w := r.world
	buf := w.getBuf(1)
	buf[0] = v
	msg := message{src: r.id, tag: tag, data: buf}
	if w.checks {
		msg.crc = crc
		msg.summed = true
	}
	w.deliver(dst, msg)
}

// recvScalar receives one internal scalar from src, returning the value and
// the CRC it travelled with. The payload buffer is recycled immediately.
func (r *Rank) recvScalar(src, tag int) (float64, uint32) {
	w := r.world
	msg := w.boxes[r.id].get(w, r.id, src, tag)
	v := msg.data[0]
	crc := msg.crc
	w.putBuf(msg.data)
	return v, crc
}

// checkScalar verifies an internal scalar against the CRC it was sent with.
// Tag -1 marks the corruption as collective-level, matching the in-process
// convention.
func (r *Rank) checkScalar(v float64, crc uint32, src int) {
	w := r.world
	if !w.checks {
		return
	}
	if got := crcFloat(v); got != crc {
		w.detected.Add(1)
		panic(&CorruptionError{Rank: r.id, Src: src, Tag: -1, Op: r.ops, Want: crc, Got: got})
	}
}

// collectiveEntry counts the operation and consults the fault injector,
// returning whether a flip verdict fired. Kill/stall/delay actions apply
// inside inject as usual.
func (r *Rank) collectiveEntry() bool {
	r.ops++
	if fi := r.world.injector; fi != nil {
		_, _, flip := r.inject(fi.OnCollective(r.id, r.ops))
		return flip
	}
	return false
}

// distBarrier is Barrier for distributed worlds: gather-to-root then
// release, carrying token scalars. A flip verdict arms (nothing is staged at
// a barrier) and discharges at the next reduction, like the in-process path.
func (r *Rank) distBarrier() {
	w := r.world
	if r.collectiveEntry() {
		r.armFlip = true
	}
	token := 0.0
	crc := uint32(0)
	if w.checks {
		crc = crcFloat(token)
	}
	if r.id == 0 {
		for i := 1; i < w.size; i++ {
			v, c := r.recvScalar(i, tagGather)
			r.checkScalar(v, c, i)
		}
		for i := 1; i < w.size; i++ {
			r.sendScalar(i, tagRelease, token, crc)
		}
		return
	}
	r.sendScalar(0, tagGather, token, crc)
	v, c := r.recvScalar(0, tagRelease)
	r.checkScalar(v, c, 0)
}

// distAllreduce is Allreduce for distributed worlds. Rank 0 gathers every
// contribution into the world's reduction scratch and combines in ascending
// rank order — the identical loop, and therefore the identical bits, as the
// in-process implementation — then releases the result to every rank. With
// checksums on, rank 0 verifies every contribution (including its own, so an
// injected flip is detected exactly as in-process) and every rank verifies
// the released result.
func (r *Rank) distAllreduce(x float64, op Op) float64 {
	w := r.world
	if r.collectiveEntry() {
		r.armFlip = true
	}
	crc := uint32(0)
	if w.checks {
		crc = crcFloat(x)
	}
	if r.armFlip {
		// Discharge after the CRC is computed: the checksum attests to the
		// true contribution, so the corruption is detectable downstream.
		r.armFlip = false
		x = FlipBits(x, r.flipShape().Bit)
	}
	if r.id != 0 {
		r.sendScalar(0, tagGather, x, crc)
		v, c := r.recvScalar(0, tagRelease)
		r.checkScalar(v, c, 0)
		return v
	}
	// Rank 0: gather, verify, combine, release. Only rank 0 touches the
	// scratch in a distributed world, so no locking is needed even when all
	// ranks share this process (a loopback world).
	w.redBuf[0] = x
	w.redCRC[0] = crc
	for i := 1; i < w.size; i++ {
		v, c := r.recvScalar(i, tagGather)
		w.redBuf[i] = v
		w.redCRC[i] = c
	}
	var acc float64
	for i := 0; i < w.size; i++ {
		v := w.redBuf[i]
		r.checkScalar(v, w.redCRC[i], i)
		if i == 0 {
			acc = v
			continue
		}
		switch op {
		case OpSum:
			acc += v
		case OpMin:
			if v < acc {
				acc = v
			}
		case OpMax:
			if v > acc {
				acc = v
			}
		}
	}
	accCRC := uint32(0)
	if w.checks {
		accCRC = crcFloat(acc)
	}
	for i := 1; i < w.size; i++ {
		r.sendScalar(i, tagRelease, acc, accCRC)
	}
	return acc
}

// SocketOptions configures a socket-transport world.
type SocketOptions struct {
	// Network is "unix" (the default) or "tcp".
	Network string
	// Addrs holds one listen address per rank. NewSocketWorld fills it with
	// Unix sockets in a fresh temporary directory when nil; JoinWorld
	// requires it (every member must agree on the full address table).
	Addrs []string
	// HeartbeatInterval is the idle-keepalive period per link (default
	// 100ms). Negative disables heartbeats and liveness monitoring.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a peer may stay silent before it is
	// declared lost (default 20× the interval).
	HeartbeatTimeout time.Duration
	// DialTimeout bounds the total time spent (re)dialling one peer,
	// retries and backoff included, before the peer is declared lost
	// (default 10s).
	DialTimeout time.Duration
	// Injector, when set, perturbs individual wire frames (partitions,
	// slow links). A *Schedule satisfies this alongside FaultInjector.
	Injector FrameInjector
}

func (o *SocketOptions) network() string {
	if o.Network == "" {
		return "unix"
	}
	return o.Network
}

func (o *SocketOptions) heartbeatInterval() time.Duration {
	if o.HeartbeatInterval == 0 {
		return 100 * time.Millisecond
	}
	return o.HeartbeatInterval
}

func (o *SocketOptions) heartbeatTimeout() time.Duration {
	if o.HeartbeatTimeout > 0 {
		return o.HeartbeatTimeout
	}
	return 20 * o.heartbeatInterval()
}

func (o *SocketOptions) dialTimeout() time.Duration {
	if o.DialTimeout > 0 {
		return o.DialTimeout
	}
	return 10 * time.Second
}

// NewSocketWorld creates a world whose ranks all live in this process but
// exchange every payload over real sockets — the loopback configuration the
// conformance and chaos tests use to exercise the full wire path (framing,
// CRC trailers, acks, reconnects) without spawning processes. With no
// explicit Addrs, Unix sockets are created in a fresh temporary directory
// and removed on Close.
func NewSocketWorld(size int, opt SocketOptions) (*World, error) {
	cleanup := func() {}
	if opt.Addrs == nil {
		if opt.network() != "unix" {
			return nil, fmt.Errorf("comm: NewSocketWorld: Addrs required for network %q", opt.Network)
		}
		// Keep paths short: Unix socket paths are limited to ~108 bytes.
		dir, err := os.MkdirTemp("", "tlw")
		if err != nil {
			return nil, fmt.Errorf("comm: NewSocketWorld: %w", err)
		}
		cleanup = func() { os.RemoveAll(dir) }
		opt.Addrs = make([]string, size)
		for i := range opt.Addrs {
			opt.Addrs[i] = filepath.Join(dir, fmt.Sprintf("r%d.sock", i))
		}
	}
	if len(opt.Addrs) != size {
		cleanup()
		return nil, fmt.Errorf("comm: NewSocketWorld: %d addrs for %d ranks", len(opt.Addrs), size)
	}
	w := NewWorld(size)
	w.dist = true
	st, err := newSocketTransport(w, opt, cleanup)
	if err != nil {
		cleanup()
		return nil, err
	}
	w.tr = st
	return w, nil
}

// JoinWorld creates this process's membership in a world of the given size
// that spans OS processes: the returned World hosts exactly one rank, and
// Run(fn) executes fn once, as that rank. Every member must be constructed
// with the same size and address table. The world is single-use: after Run
// returns, Close it; it cannot be Reset and reused the way an in-process
// world can, because peer processes share no abort latch.
func JoinWorld(rank, size int, opt SocketOptions) (*World, error) {
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("comm: JoinWorld: rank %d outside world of size %d", rank, size)
	}
	if len(opt.Addrs) != size {
		return nil, fmt.Errorf("comm: JoinWorld: %d addrs for %d ranks", len(opt.Addrs), size)
	}
	w := NewWorld(size)
	w.dist = true
	w.local = []int{rank}
	st, err := newSocketTransport(w, opt, func() {})
	if err != nil {
		return nil, err
	}
	w.tr = st
	return w, nil
}
