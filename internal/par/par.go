// Package par is the shared-memory parallel runtime used by the OpenMP-style
// ports: a persistent team of worker goroutines executing fork-join parallel
// loops with static, dynamic or guided scheduling and deterministic
// reductions.
//
// It stands in for OpenMP in this study (see DESIGN.md): the execution
// structure — a fixed thread team, loops chunked across threads, per-thread
// reduction partials combined at the join — matches what `#pragma omp
// parallel for reduction(+:x)` compiles to, so the relative behaviour of the
// ports that use it is representative.
//
// # Dispatch
//
// The fork-join hot path is an epoch barrier with share claiming, not a
// channel-per-worker handoff. The leader (the goroutine calling
// For/ReduceSum/...) writes one loop descriptor into the team and bumps an
// atomic epoch counter; the loop's logical shares, one per team thread
// (share i is thread i's static slice, or one chunk-claiming executor for
// the dynamic and guided schedules), are then claimed from an atomic cursor
// by whichever team members run first — the leader included, so a fork
// never blocks on a worker being scheduled. Workers spin on the epoch with a bounded budget
// (yielding to the scheduler while they spin) and park on a per-worker
// channel when no work arrives; forks wake at most GOMAXPROCS-1 parked
// workers, because waking more than can physically run only adds scheduler
// round-trips. The join is a single atomic countdown of completed shares
// with the same spin-then-park discipline on the leader's side. That
// discipline is Spin and Parker, exported so the message-passing runtime and
// the SPMD runner wait the same way.
//
// Reduction partials live in cache-line-padded slots owned by the team and
// indexed by share, so ReduceSum allocates nothing per call and stays
// deterministic for a fixed team size regardless of which goroutine executes
// which share (see bench_test.go for measured dispatch latency against the
// previous channel-per-worker runtime).
//
// Because shares are claimed rather than pinned to goroutines, loop bodies
// must not synchronise with other shares of the same loop (OpenMP's
// restrictions on barriers inside worksharing constructs apply here too).
//
// Ownership: a Team is driven by one leader goroutine at a time — loop
// methods must not be called concurrently with each other or with Close —
// and the team owns its workers and reduction slots. Different Teams are
// fully independent, which is how the serving layer runs many OpenMP-style
// solves side by side.
package par

import (
	"runtime"
	"sync/atomic"
)

// cacheLinePad separates fields written by different threads. 128 bytes
// covers a 64-byte line plus the adjacent line pulled in by the spatial
// prefetcher on x86.
const cacheLinePad = 128

// spinIters bounds the busy-wait before a waiter parks. The loop yields to
// the Go scheduler periodically so an oversubscribed team (more threads than
// GOMAXPROCS) degrades to cooperative scheduling instead of livelock.
const spinIters = 4096

// Spin is the runtime's one busy-wait: it polls ready at most spinIters
// times, yielding to the Go scheduler every 64 polls, and reports whether
// ready held. false means the budget ran out and the caller should park.
// Team workers and joins, the SPMD runner's ranks and joins (through
// Parker) and the in-process comm mailbox and barrier (before they fall
// back to their condition variables) all wait through it.
func Spin(ready func() bool) bool {
	for i := 0; i < spinIters; i++ {
		if ready() {
			return true
		}
		if i&63 == 63 {
			runtime.Gosched()
		}
	}
	return false
}

// Parker is one goroutine's spin-then-park wait slot: Wait spins, then parks
// on a one-token channel until a Wake. The parked-flag/recheck ordering on
// both sides (Wait stores parked before re-reading its condition; a waker
// makes the condition true before reading parked) rules out a lost wakeup;
// a stale token from an earlier wait only causes one spurious recheck.
// Padded so adjacent parkers never share a cache line.
type Parker struct {
	parked atomic.Bool
	wake   chan struct{}
	_      [cacheLinePad - 16]byte
}

// NewParker returns a Parker ready for use.
func NewParker() *Parker { return &Parker{wake: make(chan struct{}, 1)} }

// Wait blocks until ready reports true: Spin, then park until Wake. One
// goroutine at a time waits on p.
func (p *Parker) Wait(ready func() bool) {
	if Spin(ready) {
		return
	}
	for {
		p.parked.Store(true)
		if ready() {
			p.parked.Store(false)
			return
		}
		<-p.wake
		p.parked.Store(false)
		if ready() {
			return
		}
	}
}

// Wake hands p's goroutine the wake token if it is parked and reports
// whether it was. Call it after making the waited-for condition true.
func (p *Parker) Wake() bool {
	if !p.parked.Load() {
		return false
	}
	select {
	case p.wake <- struct{}{}:
	default:
	}
	return true
}

// loopOp selects what exec runs for the current epoch. The leader publishes
// the descriptor fields, then resets the share cursor and bumps the epoch;
// executors read them only after an atomic observation of the reset or the
// bump, which gives the happens-before edge.
type loopOp uint8

const (
	opNone loopOp = iota
	opFor
	opForDynamic
	opForGuided
	opReduceSum
	opExit
)

// rslot is one share's reduction slot, padded so adjacent shares never
// write the same cache line.
type rslot struct {
	a float64
	_ [cacheLinePad - 8]byte
}

// Team is a persistent group of worker goroutines. The zero value is not
// usable; create teams with NewTeam and release them with Close. A Team is
// driven by one goroutine at a time (the leader); the loop methods must not
// be called concurrently with each other or with Close.
type Team struct {
	nthreads int
	maxWake  int // parked workers woken per fork: GOMAXPROCS-1 at creation
	closed   atomic.Bool

	// Loop descriptor for the current epoch, written only by the leader
	// between joins. op is atomic because idle workers peek at it for the
	// exit signal without claiming a share; the other fields are only read
	// after a share claim, whose atomic cursor gives the happens-before
	// edge, and the join keeps them stable until every claimed share is
	// done.
	op      atomic.Uint32 // holds a loopOp
	lo, hi  int
	chunk   int
	align   int // share-boundary alignment in iterations (0/1: none)
	bodyFor func(from, to int)
	bodyRed func(from, to int) float64

	_        [cacheLinePad]byte
	epoch    atomic.Uint64 // bumped once per fork; workers spin on it
	_        [cacheLinePad - 8]byte
	shareCur atomic.Int32 // next unclaimed share of the current epoch
	_        [cacheLinePad - 4]byte
	pending  atomic.Int32 // shares (or, for exit, workers) yet to finish
	_        [cacheLinePad - 4]byte
	cursor   atomic.Int64 // shared claim cursor for dynamic/guided schedules
	_        [cacheLinePad - 8]byte

	leader  *Parker // the join parks here; the finishing share wakes it
	workers []*Parker
	slots   []rslot // per-share reduction slots, reused every call
}

// NewTeam starts a team of n workers. If n <= 0 the team uses
// runtime.GOMAXPROCS(0) workers, mirroring OMP_NUM_THREADS defaulting to the
// core count.
func NewTeam(n int) *Team {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	t := &Team{nthreads: n, slots: make([]rslot, n)}
	t.maxWake = runtime.GOMAXPROCS(0) - 1
	if n == 1 {
		return t
	}
	t.leader = NewParker()
	t.workers = make([]*Parker, n-1)
	for i := range t.workers {
		t.workers[i] = NewParker()
		go t.workerLoop(t.workers[i])
	}
	return t
}

// Close shuts the workers down and waits for them to exit. The team must be
// idle. Close is idempotent; any use of the team after Close panics with a
// "Team used after Close" message.
func (t *Team) Close() {
	if t.closed.Swap(true) {
		return
	}
	if t.nthreads == 1 {
		return
	}
	// Arm the join before publishing the exit op: a worker that comes back
	// late from an earlier epoch re-reads op without waiting for the bump,
	// and must not count its exit against a join that is not armed yet.
	t.pending.Store(int32(len(t.workers)))
	t.op.Store(uint32(opExit))
	t.publish(true)
	t.join()
}

// ensureOpen panics when the team has been closed. Before the epoch-barrier
// rewrite this failure surfaced as a bare "send on closed channel".
func (t *Team) ensureOpen() {
	if t.closed.Load() {
		panic("par: Team used after Close")
	}
}

// fork publishes the already-written loop descriptor: arm the join with the
// number of completion units, reset the share cursor, bump the epoch, wake
// parked workers (all of them for exit, at most maxWake otherwise). pending
// must be armed before the cursor reset and the bump so no executor can
// finish a share before the join is counting.
func (t *Team) fork(units int32, wakeAll bool) {
	t.pending.Store(units)
	t.publish(wakeAll)
}

// publish is fork after the join has been armed.
func (t *Team) publish(wakeAll bool) {
	t.shareCur.Store(0)
	t.epoch.Add(1)
	budget := t.maxWake
	if wakeAll {
		budget = len(t.workers)
	}
	for _, w := range t.workers {
		if budget <= 0 {
			return
		}
		if w.Wake() {
			budget--
		}
	}
}

// join waits on the leader's Parker for the current epoch's completion
// count to drain.
func (t *Team) join() {
	t.leader.Wait(func() bool { return t.pending.Load() == 0 })
}

// finishUnit counts one completion unit down and, if it was the last, wakes
// the leader should it have parked.
func (t *Team) finishUnit() {
	if t.pending.Add(-1) == 0 {
		t.leader.Wake()
	}
}

// claimShares executes shares of the current epoch until none remain. Both
// the leader and any awake worker run this, so the loop completes even if no
// worker gets scheduled at all. A claim that observes the exit descriptor
// does nothing: exit is counted per worker, not per share.
func (t *Team) claimShares() {
	n := int32(t.nthreads)
	for {
		s := t.shareCur.Add(1) - 1
		if s >= n || loopOp(t.op.Load()) == opExit {
			return
		}
		t.exec(int(s))
		t.finishUnit()
	}
}

// awaitEpoch blocks a worker on its Parker until the team epoch moves past
// last and returns the new epoch.
func (t *Team) awaitEpoch(w *Parker, last uint64) uint64 {
	var e uint64
	w.Wait(func() bool {
		e = t.epoch.Load()
		return e != last
	})
	return e
}

func (t *Team) workerLoop(w *Parker) {
	var last uint64
	for {
		last = t.awaitEpoch(w, last)
		if loopOp(t.op.Load()) == opExit {
			t.finishUnit()
			return
		}
		t.claimShares()
	}
}

// staticShare computes this share's static slice, honouring the team's
// share alignment.
func (t *Team) staticShare(share int) (int, int) {
	if t.align > 1 {
		return StaticRangeAligned(t.lo, t.hi, share, t.nthreads, t.align)
	}
	return StaticRange(t.lo, t.hi, share, t.nthreads)
}

// exec runs one share of the current epoch's loop.
func (t *Team) exec(share int) {
	switch loopOp(t.op.Load()) {
	case opFor:
		from, to := t.staticShare(share)
		if from < to {
			t.bodyFor(from, to)
		}
	case opForDynamic:
		chunk := t.chunk
		for {
			from := int(t.cursor.Add(int64(chunk))) - chunk
			if from >= t.hi {
				return
			}
			t.bodyFor(from, min(from+chunk, t.hi))
		}
	case opForGuided:
		for {
			cur := t.cursor.Load()
			if cur >= int64(t.hi) {
				return
			}
			n := (int64(t.hi) - cur) / int64(2*t.nthreads)
			if n < int64(t.chunk) {
				n = int64(t.chunk)
			}
			// Snap claim ends to tile-row multiples while enough iterations
			// remain that rounding up cannot starve later claims.
			if a := int64(t.align); a > 1 && int64(t.hi)-cur > a*int64(t.nthreads) {
				n = (n + a - 1) / a * a
			}
			to := min(cur+n, int64(t.hi))
			if t.cursor.CompareAndSwap(cur, to) {
				t.bodyFor(int(cur), int(to))
			}
		}
	case opReduceSum:
		from, to := t.staticShare(share)
		var s float64
		if from < to {
			s = t.bodyRed(from, to)
		}
		t.slots[share].a = s
	}
}

// run executes the published descriptor on the whole team: fork, claim
// shares alongside the workers, join. The descriptor funcs are cleared
// afterwards so the team does not retain the caller's closures between
// loops.
func (t *Team) run() {
	t.fork(int32(t.nthreads), false)
	t.claimShares()
	t.join()
	t.bodyFor, t.bodyRed = nil, nil
	t.op.Store(uint32(opNone))
}

// StaticRange computes the static-schedule slice of [lo, hi) owned by
// thread out of nthreads: contiguous near-equal blocks, the first hi-lo mod
// nthreads blocks one element longer. Exposed so ports can reproduce the
// exact OpenMP static distribution when they need thread-private state.
func StaticRange(lo, hi, thread, nthreads int) (int, int) {
	n := hi - lo
	if n <= 0 {
		return lo, lo
	}
	base := n / nthreads
	rem := n % nthreads
	start := lo + thread*base + min(thread, rem)
	end := start + base
	if thread < rem {
		end++
	}
	return start, end
}

// For executes body over [lo, hi) with static scheduling: each thread gets
// one contiguous block. body is called with a half-open sub-range.
func (t *Team) For(lo, hi int, body func(from, to int)) {
	t.ensureOpen()
	if hi-lo <= 0 {
		return
	}
	if t.nthreads == 1 || hi-lo == 1 {
		body(lo, hi)
		return
	}
	t.lo, t.hi, t.bodyFor = lo, hi, body
	t.op.Store(uint32(opFor))
	t.run()
}

// ForDynamic executes body over [lo, hi) with dynamic scheduling in chunks
// of the given size: threads grab the next chunk from a shared counter, like
// `schedule(dynamic, chunk)`. Useful when iterations have uneven cost.
func (t *Team) ForDynamic(lo, hi, chunk int, body func(from, to int)) {
	t.ensureOpen()
	if hi-lo <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = 1
	}
	if t.nthreads == 1 {
		for from := lo; from < hi; from += chunk {
			body(from, min(from+chunk, hi))
		}
		return
	}
	t.hi, t.chunk, t.bodyFor = hi, chunk, body
	t.op.Store(uint32(opForDynamic))
	t.cursor.Store(int64(lo))
	t.run()
}

// ForGuided executes body over [lo, hi) with guided scheduling, like
// `schedule(guided, minChunk)`: each claim takes half of the remaining
// iterations divided by the team size, decaying toward minChunk (>= 1).
// Large early chunks keep claim traffic low, small late chunks balance
// uneven tails.
func (t *Team) ForGuided(lo, hi, minChunk int, body func(from, to int)) {
	t.ensureOpen()
	if hi-lo <= 0 {
		return
	}
	if minChunk <= 0 {
		minChunk = 1
	}
	if t.nthreads == 1 {
		body(lo, hi)
		return
	}
	t.hi, t.chunk, t.bodyFor = hi, minChunk, body
	t.op.Store(uint32(opForGuided))
	t.cursor.Store(int64(lo))
	t.run()
}

// ReduceSum executes body over [lo, hi) with static scheduling and returns
// the sum of the per-thread partial results. Partials land in the team's
// padded slots (no allocation) and are combined in thread order, so for a
// fixed team size the result is deterministic — the same property an OpenMP
// reduction has for a fixed OMP_NUM_THREADS.
func (t *Team) ReduceSum(lo, hi int, body func(from, to int) float64) float64 {
	t.ensureOpen()
	if hi-lo <= 0 {
		return 0
	}
	if t.nthreads == 1 {
		return body(lo, hi)
	}
	t.lo, t.hi, t.bodyRed = lo, hi, body
	t.op.Store(uint32(opReduceSum))
	t.run()
	var sum float64
	for i := range t.slots {
		sum += t.slots[i].a
	}
	return sum
}
