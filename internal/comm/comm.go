// Package comm is the message-passing runtime used by the MPI-style ports:
// a fixed-size world of ranks (goroutines) exchanging typed messages through
// eager, unbounded mailboxes, with the two collectives TeaLeaf needs:
// barrier and scalar allreduce. (A field gather is point-to-point sends to
// rank 0, done by the caller.)
//
// It stands in for MPI in this study (see DESIGN.md): programs are written
// SPMD — NewWorld(n).Run(func(r *Rank) { ... }) — with explicit sends,
// receives and halo exchanges between sub-domains, so the distributed-memory
// ports retain the communication structure and costs (copies plus
// synchronisation) of their MPI originals.
//
// Concurrency and ownership: a Rank's methods are called by one goroutine
// at a time, mirroring MPI's one-process-per-rank model. That is the
// goroutine Run started for the rank or, for a handle from Ranks, whichever
// goroutine the caller hands it to, provided each hand-over is ordered by a
// happens-before edge (a channel operation, a mutex, an atomic publish and
// its observation). The World owns the mailboxes and collective state that
// connect ranks; message payloads are copied on send, so a sender may reuse
// its buffer immediately and ranks never share mutable field memory. Run
// returns only after every rank's function has returned (or a
// fault-injected kill has been collected).
//
// In-process waits — a receive whose message has not arrived from a rank of
// the same process, a barrier some rank has not reached — first spin with
// the shared runtime's bounded busy-wait (par.Spin) and only then park on a
// condition variable, so a handoff between ranks that are running on their
// own cores costs no scheduler round-trip.
package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/warwick-hpsc/tealeaf-go/internal/par"
)

// message is one point-to-point transfer. Payloads are copied on send so a
// rank may immediately reuse its buffer, matching MPI's eager protocol for
// the message sizes TeaLeaf exchanges. With checksums enabled the message
// additionally carries the CRC-32C of the payload as it left the sender's
// buffer plus a pristine retransmission copy, so a receive that detects
// wire corruption can repair it once without a protocol round-trip.
type message struct {
	src, tag int
	data     []float64
	crc      uint32    // CRC-32C of the payload at send time (summed only)
	summed   bool      // crc is valid: world had checksums on at send
	backup   []float64 // retransmission copy, pooled; nil when checksums off
}

// castagnoli is the CRC-32C polynomial table, hardware-accelerated on every
// target Go supports — the same checksum the checkpoint container uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcFloats checksums a float64 payload byte-wise (little-endian), so the
// checksum is stable across architectures and matches a value-wise replay.
func crcFloats(xs []float64) uint32 {
	var scratch [8]byte
	crc := uint32(0)
	for _, x := range xs {
		binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(x))
		crc = crc32.Update(crc, castagnoli, scratch[:])
	}
	return crc
}

// crcFloat is crcFloats for a single staged reduction contribution.
func crcFloat(x float64) uint32 {
	var scratch [8]byte
	binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(x))
	return crc32.Update(0, castagnoli, scratch[:])
}

// mailbox is an unbounded, order-preserving queue of incoming messages for
// one rank. Receives match on (source, tag), like MPI point-to-point
// matching with non-overtaking order per (source, tag) pair.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []message
	seq     atomic.Uint64 // bumped by every put, so a spinning receiver sees arrivals
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// put queues msg. The sequence bump comes after the unlock, so a spinning
// receiver that sees it finds the mailbox lock free; the message is already
// queued by then, so the receiver's rescan cannot miss it.
func (m *mailbox) put(msg message) {
	m.mu.Lock()
	m.pending = append(m.pending, msg)
	m.mu.Unlock()
	m.seq.Add(1)
	m.cond.Broadcast()
}

// take removes and returns the oldest pending message from (src, tag).
// m.mu must be held.
func (m *mailbox) take(src, tag int) (message, bool) {
	for i, msg := range m.pending {
		if msg.src == src && msg.tag == tag {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return msg, true
		}
	}
	return message{}, false
}

// get blocks until a matching message arrives: in an in-process world it
// spins on the mailbox's sequence number (par.Spin), rescanning after each
// arrival, then parks on the condition variable. It aborts — by panicking with a cause the
// driving goroutine's recovery wraps into a RankError — when the world is
// torn down under it or, with a collective deadline installed, when the
// message does not arrive within the deadline of entry (a dead or stalled
// sender). The deadline's timer is armed only on the path that parks, so a
// receive that finds its message queued or arriving while it spins
// allocates nothing.
func (m *mailbox) get(w *World, rank, src, tag int) message {
	m.mu.Lock()
	msg, ok := m.take(src, tag)
	seq := m.seq.Load()
	m.mu.Unlock()
	if ok {
		return msg
	}
	var start time.Time
	if w.timeout > 0 {
		start = time.Now()
	}
	// Only an in-process sender is worth spinning for: it is a goroutine of
	// this process, running now. A message over a socket is a wire round
	// trip away, and its sender may need the very CPU a spin would burn.
	if !w.dist {
		par.Spin(func() bool {
			if s := m.seq.Load(); s != seq {
				seq = s
				m.mu.Lock()
				msg, ok = m.take(src, tag)
				m.mu.Unlock()
			}
			return ok || w.aborted.Load()
		})
		if ok {
			return msg
		}
	}
	var (
		expired bool // guarded by m.mu
		timer   *time.Timer
	)
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if msg, ok := m.take(src, tag); ok {
			return msg
		}
		if w.aborted.Load() {
			panic(ErrWorldAborted)
		}
		if expired {
			panic(fmt.Errorf("comm: rank %d: recv from rank %d tag %d timed out after %v: %w",
				rank, src, tag, w.timeout, ErrCollectiveTimeout))
		}
		if timer == nil && w.timeout > 0 {
			timer = time.AfterFunc(w.timeout-time.Since(start), func() {
				m.mu.Lock()
				expired = true
				m.mu.Unlock()
				m.cond.Broadcast()
			})
		}
		m.cond.Wait()
	}
}

// World is a communicator: a fixed set of ranks with mailboxes, a reusable
// barrier, a reduction scratch area and a free list of message payload
// buffers. A world's point-to-point fabric is pluggable (see Transport):
// NewWorld wires the in-process channel transport, NewSocketWorld and
// JoinWorld wire the socket transport so the same world contract spans OS
// processes.
type World struct {
	size  int
	boxes []*mailbox

	// tr routes every point-to-point payload; local lists the ranks this
	// process runs (all of them for in-process and loopback worlds, exactly
	// one for a JoinWorld member); dist selects the message-based collective
	// implementations (dist.go) over the shared-scratch ones below.
	tr       Transport
	local    []int
	dist     bool
	procExit bool

	bar barrier

	redBuf []float64
	redCRC []uint32 // per-rank CRC of the staged contribution (checksums mode)

	// Message payload free list. Send draws its copy buffer from here and
	// RecvInto returns consumed payloads, so a steady-state halo exchange
	// allocates nothing: once enough buffers of the right capacity are in
	// circulation, every message reuses one.
	bufMu sync.Mutex
	bufs  [][]float64

	// Resilience state, all dormant by default: an optional fault injector,
	// an optional per-collective deadline, and the abort latch that tears
	// the world down once any rank fails so its peers surface structured
	// errors instead of deadlocking.
	injector FaultInjector
	timeout  time.Duration
	aborted  atomic.Bool
	abortMu  sync.Mutex
	abortErr error

	// Silent-data-corruption defence, off by default: when checks is set
	// every payload and reduction contribution carries a CRC-32C verified
	// on receipt. detected counts CRC mismatches, recovered the mismatches
	// repaired from the retransmission copy; a detection that cannot be
	// repaired escalates as a CorruptionError panic.
	checks    bool
	detected  atomic.Uint64
	recovered atomic.Uint64
}

// NewWorld creates a communicator with the given number of ranks.
func NewWorld(size int) *World {
	if size <= 0 {
		panic(fmt.Sprintf("comm: world size must be positive, got %d", size))
	}
	w := &World{
		size:   size,
		boxes:  make([]*mailbox, size),
		redBuf: make([]float64, size),
		redCRC: make([]uint32, size),
		bufs:   make([][]float64, 0, 8*size+16),
	}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	w.tr = chanTransport{w}
	w.local = make([]int, size)
	for i := range w.local {
		w.local[i] = i
	}
	w.bar.init(size)
	return w
}

// getBuf returns a payload buffer of length n, reusing a pooled one when a
// large enough buffer is free. Undersized pool entries are left for smaller
// messages rather than discarded, since halo exchanges interleave two
// stable message sizes (column strips and row strips).
func (w *World) getBuf(n int) []float64 {
	w.bufMu.Lock()
	for i := len(w.bufs) - 1; i >= 0; i-- {
		if cap(w.bufs[i]) >= n {
			b := w.bufs[i][:n]
			last := len(w.bufs) - 1
			w.bufs[i] = w.bufs[last]
			w.bufs = w.bufs[:last]
			w.bufMu.Unlock()
			return b
		}
	}
	w.bufMu.Unlock()
	return make([]float64, n)
}

// putBuf returns a payload buffer to the free list. Buffers beyond the
// list's fixed capacity are dropped so the pool cannot grow unboundedly.
func (w *World) putBuf(b []float64) {
	if cap(b) == 0 {
		return
	}
	w.bufMu.Lock()
	if len(w.bufs) < cap(w.bufs) {
		w.bufs = append(w.bufs, b)
	}
	w.bufMu.Unlock()
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// SetFaultInjector installs (or, with nil, removes) a fault injector
// consulted on every send and collective entry. Install before Run; the
// injector must be safe for concurrent use by all ranks.
func (w *World) SetFaultInjector(fi FaultInjector) { w.injector = fi }

// SetCollectiveTimeout installs a per-collective deadline: any receive or
// barrier that waits longer than d fails with ErrCollectiveTimeout, so a
// dead or stalled rank surfaces as a structured error on its peers rather
// than a hang. Zero disables the watchdog (the default).
func (w *World) SetCollectiveTimeout(d time.Duration) { w.timeout = d }

// SetChecksums switches payload checksumming on or off. With checks on,
// every Send carries a CRC-32C and a pristine retransmission copy of its
// payload, every Recv verifies it (repairing one corruption from the copy,
// escalating an unrepairable one as a CorruptionError), and every reduction
// contribution is verified by each reading rank. Install before Run.
func (w *World) SetChecksums(on bool) { w.checks = on }

// ChecksumStats returns the cumulative counts of detected CRC mismatches
// and of those silently repaired from the retransmission copy. Detections
// are counted per observing rank, so one corrupted reduction contribution
// read by N ranks counts N times. The counters survive Reset: they report
// the whole run, not the last attempt.
func (w *World) ChecksumStats() (detected, recovered uint64) {
	return w.detected.Load(), w.recovered.Load()
}

// Err returns the first rank failure recorded since the last Reset, or nil.
func (w *World) Err() error {
	w.abortMu.Lock()
	defer w.abortMu.Unlock()
	return w.abortErr
}

// Abort tears the world down: the cause is recorded (first caller wins) and
// every rank blocked in a receive or barrier is woken to fail with
// ErrWorldAborted. Run's recovery calls it automatically when a rank
// panics; external supervisors (e.g. a port detecting a dead rank) may call
// it directly.
func (w *World) Abort(cause error) {
	w.abortMu.Lock()
	if w.abortErr == nil {
		w.abortErr = cause
	}
	w.abortMu.Unlock()
	w.aborted.Store(true)
	// Lock-step each condition variable so a waiter either observes the
	// flag before sleeping or is already asleep and receives the broadcast.
	for _, box := range w.boxes {
		box.mu.Lock()
		box.mu.Unlock() //nolint:staticcheck // empty critical section orders the flag store
		box.cond.Broadcast()
	}
	w.bar.mu.Lock()
	w.bar.mu.Unlock() //nolint:staticcheck
	w.bar.cond.Broadcast()
}

// Reset clears transient communication state after a recovered failure so
// the world can be reused for a retry: pending messages are drained back to
// the payload pool, the barrier is re-armed and the abort latch cleared.
// Every rank must be quiescent (between operations) when Reset is called.
func (w *World) Reset() {
	for _, box := range w.boxes {
		box.mu.Lock()
		for _, msg := range box.pending {
			w.putBuf(msg.data)
			if msg.backup != nil {
				w.putBuf(msg.backup)
			}
		}
		box.pending = nil
		box.mu.Unlock()
	}
	w.bar.mu.Lock()
	w.bar.waiting = 0
	w.bar.gen.Add(1)
	w.bar.mu.Unlock()
	w.bar.cond.Broadcast()
	w.abortMu.Lock()
	w.abortErr = nil
	w.abortMu.Unlock()
	w.aborted.Store(false)
}

// Run launches fn once per rank this process hosts — every rank for
// in-process and loopback worlds, the single joined rank for a JoinWorld
// member — each on its own goroutine, and blocks until every local rank
// returns. It is the moral equivalent of mpirun.
//
// A panicking rank no longer crashes the process: the panic is recovered
// into a RankError carrying the rank ID, its operation sequence number and
// the cause, the world is aborted so blocked peers fail fast with
// ErrWorldAborted instead of deadlocking, and Run returns the primary
// failure (joined with any other non-collateral rank failures).
func (w *World) Run(fn func(r *Rank)) error {
	var wg sync.WaitGroup
	errs := make([]error, len(w.local))
	wg.Add(len(w.local))
	for i, id := range w.local {
		go func(i, id int) {
			defer wg.Done()
			r := &Rank{world: w, id: id}
			defer func() {
				if p := recover(); p != nil {
					re := &RankError{Rank: id, Step: r.ops, Cause: p}
					errs[i] = re
					w.Abort(re)
				}
			}()
			fn(r)
		}(i, id)
	}
	wg.Wait()
	primary := w.Err()
	if primary == nil {
		return nil
	}
	out := []error{primary}
	for _, e := range errs {
		if e == nil || e == primary || errors.Is(e, ErrWorldAborted) {
			continue
		}
		out = append(out, e)
	}
	return errors.Join(out...)
}

// Ranks returns a handle for every rank this process hosts, for a driver
// that runs them on goroutines of its own instead of through Run (the SPMD
// runner runs rank 0 on its caller's goroutine). Each handle is used by one
// goroutine at a time, and recovering a rank's panic — recording it with
// Abort — becomes the driver's job.
func (w *World) Ranks() []*Rank {
	rs := make([]*Rank, len(w.local))
	for i, id := range w.local {
		rs[i] = &Rank{world: w, id: id}
	}
	return rs
}

// Rank is one process-equivalent within a World. Its methods are called by
// one goroutine at a time (see the package comment).
type Rank struct {
	world *World
	id    int
	ops   int // operation sequence number (sends, receives, collectives)

	// staged is true while this rank's reduction contribution sits live in
	// the world's scratch slot (between staging and the post-read barrier);
	// armFlip carries a collective flip verdict that arrived while no
	// contribution was staged, to discharge at the next staging.
	staged  bool
	armFlip bool
}

// ID returns this rank's index in [0, Size).
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return r.world.size }

// Ops returns the rank's communication-operation count, the sequence number
// fault schedules and RankError.Step refer to.
func (r *Rank) Ops() int { return r.ops }

// inject consults the installed fault injector's verdict for the current
// operation and applies the rank-local actions. It reports whether the
// operation should be dropped (sends only); corrupt and flip are applied by
// the caller to the payload copy (or, for collectives, to the staged
// reduction contribution).
func (r *Rank) inject(act Action) (drop, corrupt, flip bool) {
	switch act {
	case ActDrop:
		return true, false, false
	case ActCorrupt:
		return false, true, false
	case ActFlip:
		return false, false, true
	case ActDelay:
		if s, ok := r.world.injector.(*Schedule); ok {
			time.Sleep(s.delay())
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	case ActStall:
		if s, ok := r.world.injector.(*Schedule); ok {
			time.Sleep(s.stall())
		} else {
			time.Sleep(50 * time.Millisecond)
		}
	case ActKill:
		panic(fmt.Errorf("comm: rank %d killed at op %d: %w", r.id, r.ops, ErrKilled))
	case ActKillProc:
		if r.world.procExit {
			// A fleet worker dies for real: exit(137) mimics SIGKILL's shell
			// status, and the supervisor must notice via heartbeat/exit, not
			// via an error return.
			fmt.Fprintf(os.Stderr, "comm: rank %d: fault injector killed process at op %d\n", r.id, r.ops)
			os.Exit(137)
		}
		panic(fmt.Errorf("comm: rank %d process-killed at op %d: %w", r.id, r.ops, ErrKilled))
	}
	return false, false, false
}

// flipShape returns the flip shape the injector recorded for this rank, or
// the default when the injector is not a *Schedule.
func (r *Rank) flipShape() flipSpec {
	if s, ok := r.world.injector.(*Schedule); ok {
		return s.flipFor(r.id)
	}
	return flipSpec{Bit: DefaultFlipBit}
}

// Send delivers a copy of data to dst with the given tag. Send is eager and
// never blocks.
func (r *Rank) Send(dst, tag int, data []float64) {
	r.ops++
	if dst < 0 || dst >= r.world.size {
		panic(fmt.Errorf("comm: rank %d: send to invalid rank %d (world size %d, tag %d)",
			r.id, dst, r.world.size, tag))
	}
	var corrupt, flip bool
	if fi := r.world.injector; fi != nil {
		var drop bool
		drop, corrupt, flip = r.inject(fi.OnSend(r.id, dst, tag, r.ops))
		if drop {
			return
		}
	}
	buf := r.world.getBuf(len(data))
	copy(buf, data)
	msg := message{src: r.id, tag: tag, data: buf}
	if r.world.checks {
		// Checksum and back up the payload as it left the caller's buffer,
		// before any injected wire fault touches the copy: the CRC attests
		// to the sender's intent, the backup is the bounded re-exchange.
		// Over a socket there is no shared memory to carry a backup through,
		// so distributed worlds send the CRC alone: detection still works at
		// the receiver, but an unrepairable mismatch escalates directly.
		msg.crc = crcFloats(buf)
		msg.summed = true
		if !r.world.dist {
			msg.backup = r.world.getBuf(len(data))
			copy(msg.backup, data)
		}
	}
	if corrupt {
		for i := range buf {
			buf[i] = math.NaN()
		}
	}
	if flip && len(buf) > 0 {
		fs := r.flipShape()
		idx := fs.Idx
		if idx >= len(buf) {
			idx = len(buf) - 1
		}
		buf[idx] = FlipBits(buf[idx], fs.Bit)
		if fs.Sticky && msg.backup != nil {
			// A sticky flip hits the retransmission copy too, modelling
			// corruption at the source rather than on the wire: detection
			// cannot repair it and must escalate.
			msg.backup[idx] = FlipBits(msg.backup[idx], fs.Bit)
		}
	}
	r.world.deliver(dst, msg)
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload. Messages from the same (src, tag) are received in
// send order.
func (r *Rank) Recv(src, tag int) []float64 {
	r.ops++
	if src < 0 || src >= r.world.size {
		panic(fmt.Errorf("comm: rank %d: recv from invalid rank %d (world size %d, tag %d)",
			r.id, src, r.world.size, tag))
	}
	msg := r.world.boxes[r.id].get(r.world, r.id, src, tag)
	return r.verify(msg, src, tag)
}

// verify checks a checksummed message's payload against its CRC. A mismatch
// is repaired once from the retransmission copy — the bounded re-exchange —
// and an unrepairable mismatch escalates as a CorruptionError panic, which
// World.Run wraps into a RankError for the driver's rollback machinery.
// Unsummed messages (checksums off at send) pass through untouched.
func (r *Rank) verify(msg message, src, tag int) []float64 {
	if !msg.summed {
		return msg.data
	}
	w := r.world
	got := crcFloats(msg.data)
	if got == msg.crc {
		if msg.backup != nil {
			w.putBuf(msg.backup)
		}
		return msg.data
	}
	w.detected.Add(1)
	if msg.backup != nil && crcFloats(msg.backup) == msg.crc {
		w.putBuf(msg.data)
		w.recovered.Add(1)
		return msg.backup
	}
	if msg.backup != nil {
		w.putBuf(msg.backup)
	}
	panic(&CorruptionError{Rank: r.id, Src: src, Tag: tag, Op: r.ops, Want: msg.crc, Got: got})
}

// RecvInto receives from (src, tag) into dst and returns the element count.
// It panics if the payload does not fit: a size mismatch in a halo exchange
// is a protocol bug, not a recoverable condition. Unlike Recv, the consumed
// payload buffer is recycled into the world's free list, so steady-state
// exchanges built on Send/RecvInto are allocation-free.
func (r *Rank) RecvInto(src, tag int, dst []float64) int {
	data := r.Recv(src, tag)
	if len(data) > len(dst) {
		panic(fmt.Errorf("comm: rank %d: message of %d elems from rank %d tag %d overflows buffer of %d",
			r.id, len(data), src, tag, len(dst)))
	}
	copy(dst, data)
	n := len(data)
	r.world.putBuf(data)
	return n
}

// Barrier blocks until every rank in the world has entered it.
func (r *Rank) Barrier() {
	if r.world.dist {
		r.distBarrier()
		return
	}
	r.ops++
	if fi := r.world.injector; fi != nil {
		if _, _, flip := r.inject(fi.OnCollective(r.id, r.ops)); flip {
			// A flip at a collective corrupts this rank's staged reduction
			// contribution — after the CRC was staged, so a checksummed
			// Allreduce detects it at every reading rank. At a bare barrier
			// (or a reduction's post-read barrier) the slot holds stale
			// scratch, so the verdict is armed instead and discharges at the
			// next staging — a one-shot flip rule always corrupts something
			// observable rather than silently evaporating.
			if r.staged {
				w := r.world
				w.redBuf[r.id] = FlipBits(w.redBuf[r.id], r.flipShape().Bit)
			} else {
				r.armFlip = true
			}
		}
	}
	r.world.bar.wait(r.world, r.id)
}

// barrier is a reusable sense-reversing barrier.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	size    int
	waiting int
	gen     atomic.Uint64 // bumped under mu; spinning waiters read it without
}

func (b *barrier) init(size int) {
	b.size = size
	b.cond = sync.NewCond(&b.mu)
}

// wait blocks until all ranks arrive: the last to arrive bumps the
// generation, which earlier arrivals spin on (par.Spin) before they park on
// the condition variable. Like mailbox.get it fails by panic when the world
// aborts or the collective deadline, measured from entry, expires before
// the barrier completes; the deadline's timer is armed only by a waiter
// that parks, never by the last arrival.
func (b *barrier) wait(w *World, rank int) {
	b.mu.Lock()
	gen := b.gen.Load()
	b.waiting++
	if b.waiting == b.size {
		b.waiting = 0
		b.gen.Add(1)
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	b.mu.Unlock()
	var start time.Time
	if w.timeout > 0 {
		start = time.Now()
	}
	if par.Spin(func() bool { return b.gen.Load() != gen || w.aborted.Load() }) && b.gen.Load() != gen {
		return
	}
	var (
		expired bool // guarded by b.mu
		timer   *time.Timer
	)
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	b.mu.Lock()
	defer b.mu.Unlock()
	for gen == b.gen.Load() {
		if w.aborted.Load() {
			b.waiting--
			panic(ErrWorldAborted)
		}
		if expired {
			b.waiting--
			panic(fmt.Errorf("comm: rank %d: barrier timed out after %v (%d of %d ranks arrived): %w",
				rank, w.timeout, b.waiting+1, b.size, ErrCollectiveTimeout))
		}
		if timer == nil && w.timeout > 0 {
			timer = time.AfterFunc(w.timeout-time.Since(start), func() {
				b.mu.Lock()
				expired = true
				b.mu.Unlock()
				b.cond.Broadcast()
			})
		}
		b.cond.Wait()
	}
}

// Op is a reduction operator for Allreduce.
type Op int

const (
	// OpSum adds contributions.
	OpSum Op = iota
	// OpMin takes the minimum.
	OpMin
	// OpMax takes the maximum.
	OpMax
)

// Allreduce combines one float64 per rank with the given operator and
// returns the result on every rank. The combination is performed in rank
// order on every rank, so the result is bitwise identical across ranks and
// across runs — the determinism the cross-backend verification tests rely
// on.
func (r *Rank) Allreduce(x float64, op Op) float64 {
	w := r.world
	if w.dist {
		return r.distAllreduce(x, op)
	}
	w.redBuf[r.id] = x
	if w.checks {
		w.redCRC[r.id] = crcFloat(x)
	}
	if r.armFlip {
		// Discharge a flip verdict that arrived while nothing was staged:
		// the CRC above already attests to the true contribution, so every
		// reading rank detects the corruption.
		r.armFlip = false
		w.redBuf[r.id] = FlipBits(w.redBuf[r.id], r.flipShape().Bit)
	}
	r.staged = true
	r.Barrier() // all contributions visible
	var acc float64
	for i := 0; i < w.size; i++ {
		v := w.redBuf[i]
		if w.checks {
			if got := crcFloat(v); got != w.redCRC[i] {
				// A reduction contribution lives in shared scratch: there is
				// no retransmission copy to repair from, so every detection
				// escalates directly (Tag -1 marks a collective).
				w.detected.Add(1)
				panic(&CorruptionError{Rank: r.id, Src: i, Tag: -1, Op: r.ops, Want: w.redCRC[i], Got: got})
			}
		}
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
	r.staged = false // the slot is dead scratch from here on
	r.Barrier()      // all ranks done reading before any next write
	return acc
}

// AllreduceSum is Allreduce with OpSum.
func (r *Rank) AllreduceSum(x float64) float64 { return r.Allreduce(x, OpSum) }
