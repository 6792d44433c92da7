package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/warwick-hpsc/tealeaf-go/internal/serve/journal"
)

// The job lifecycle. Every state change of every job is one edge below,
// applied by Server.moveLocked — the only code that writes JobStatus.State.
// For each edge it derives every side effect: the status fields and the
// progress event, the lifecycle counters and the solve-time observation,
// the journal record, the version slot and, on terminal edges, the
// retention index and the flight's followers.
//
//	edge          from                  to
//	admitHit      (submit)              done, served from the result cache
//	admitFollow   (submit)              follower of an identical in-flight solve
//	admitQueue    (submit)              queued leader
//	start         queued leader         running
//	settle        queued or running     done, expired, failed or interrupted
//	coalesce      follower              done, from its leader's result
//	promote       follower              queued leader of the same flight
//	restore       (replay)              the terminal state the journal holds
//	replayFail    (replay)              failed: the job cannot be resumed
//	resumeQueue   (replay)              queued leader
//	resumeFollow  (replay)              follower
type edge uint8

const (
	admitHit edge = iota
	admitFollow
	admitQueue
	start
	settle
	coalesce
	promote
	restore
	replayFail
	resumeQueue
	resumeFollow
)

// phase refines JobStatus.State with what the lifecycle needs to know: a
// queued job either leads (it holds a version slot and will be dispatched)
// or follows a flight (it holds nothing and completes with its leader).
type phase uint8

const (
	phNone     phase = iota // not admitted yet
	phQueued                // queued leader
	phFollower              // queued follower
	phRunning
	phDone
	phExpired
	phFailed
	phInterrupted
	numPhases
)

var phaseState = [numPhases]State{
	phQueued: StateQueued, phFollower: StateQueued, phRunning: StateRunning,
	phDone: StateDone, phExpired: StateExpired, phFailed: StateFailed, phInterrupted: StateInterrupted,
}

// target is where an edge leads; settle and restore lead wherever their
// outcome says.
var target = [...]phase{
	admitHit: phDone, admitFollow: phFollower, admitQueue: phQueued, start: phRunning,
	coalesce: phDone, promote: phQueued, replayFail: phFailed,
	resumeQueue: phQueued, resumeFollow: phFollower,
}

// holdsSlot reports whether a job in this phase is charged against its
// version: exactly while it is a queued leader or running.
func (p phase) holdsSlot() bool { return p == phQueued || p == phRunning }

func (p phase) finished() bool { return p == phDone || p == phExpired || p == phFailed }

// outcome is what a job ends with on the edges that end it.
type outcome struct {
	to     phase
	result *JobResult
	err    string
	at     time.Time     // when the job ended; zero means now
	wall   time.Duration // the solve's wall time, on settle edges
}

// solved classifies a solve's end: success is done, the shutdown interrupt
// is resumable, a deadline expires the job and anything else fails it.
func solved(result *JobResult, wall time.Duration, err error) *outcome {
	o := &outcome{to: phDone, result: result, wall: wall}
	if err == nil {
		return o
	}
	o.err, result.Partial = err.Error(), true
	switch {
	case errors.Is(err, errInterrupted):
		o.to = phInterrupted
	case errors.Is(err, context.DeadlineExceeded):
		o.to = phExpired
	default:
		o.to = phFailed
	}
	return o
}

// notStarted is the outcome of a queued job that shutdown reached before any
// worker ran it: interrupted with no start record, so the next process
// resumes it without charging its resume budget.
func notStarted() *outcome {
	return solved(&JobResult{}, 0, fmt.Errorf("serve: job not started: %w", errInterrupted))
}

// jwrite is one journal record an edge owes. It is built under s.mu and
// appended after s.mu is released, because an fsync must never serialise
// admission; spec and result are marshalled at append time.
type jwrite struct {
	rec     journal.Record
	spec    *JobSpec
	result  *JobResult
	durable bool
	ended   *job // on finish records: the job whose recovery files go
}

// verLoad is one version's outstanding work: the jobs holding a slot on it
// and the seconds the predictor charged for them.
type verLoad struct {
	jobs int
	sec  float64
}

// move applies one edge and then appends the journal records it owes. It
// returns the follower a settle edge promoted, if any.
func (s *Server) move(j *job, e edge, o *outcome) *job {
	var w []jwrite
	s.mu.Lock()
	next := s.moveLocked(j, e, o, &w)
	s.mu.Unlock()
	s.journal(w)
	return next
}

// moveLocked applies one lifecycle edge to j (o is nil on edges that do not
// end a job), appends the journal records it owes to w, and returns the
// follower a settle edge promoted to lead the flight next. Caller holds s.mu.
func (s *Server) moveLocked(j *job, e edge, o *outcome, w *[]jwrite) *job {
	now := time.Now()
	from, to := j.phase, target[e]
	if o != nil {
		to = o.to
		if o.at.IsZero() {
			o.at = now
		}
	}
	if from == phNone {
		s.jobs[j.id] = j
		s.met.submitted.Inc()
	} else {
		s.phases[from]--
	}
	s.phases[to]++
	j.phase = to
	if had, has := from.holdsSlot(), to.holdsSlot(); has && !had {
		s.chargeLocked(j)
	} else if had && !has {
		s.releaseLocked(j)
	}

	j.mu.Lock()
	st := &j.status
	st.State, st.Version = phaseState[to], j.version
	switch e {
	case start:
		st.Started = now
	case admitHit, coalesce:
		st.Started, st.Cached, st.Coalesced = now, e == admitHit, e == coalesce
	}
	if o != nil {
		st.Finished, st.Result, st.Error = o.at, o.result, o.err
	}
	j.mu.Unlock()

	switch e {
	case admitHit:
		s.met.cacheHits.Inc()
	case admitQueue:
		if j.flight != nil {
			// Counted only once the job holds a queue place: a queue-full
			// rejection is neither a hit nor a miss, so misses stay
			// reconcilable against solves.
			s.met.cacheMisses.Inc()
		}
		switch {
		case j.spec.Fleet: // fleet routing is not a version decision
		case j.spec.Version != "":
			s.met.schedPinned.Inc()
		default:
			s.met.schedPredictive.Inc()
		}
	case resumeQueue, resumeFollow:
		s.met.resumed.Inc()
	case start:
		s.met.solves.Inc()
		if j.spec.Fleet {
			s.met.fleetJobs.Inc()
		}
	case coalesce:
		s.met.followers.Inc()
	}
	switch to {
	case phDone:
		s.met.completed.Inc()
		if e == settle {
			// teaserve_solve_seconds has one definition: the wall time of
			// a solve that ran to done. Cache hits and followers never ran.
			wall := o.wall.Seconds()
			s.met.latency.Observe(wall)
			if wall > 0 && j.predSec > 0 {
				s.met.predError.Observe(math.Abs(j.predSec-wall) / wall)
			}
		}
	case phExpired:
		s.met.expired.Inc()
	case phFailed:
		s.met.failed.Inc()
	case phInterrupted:
		s.met.interrupted.Inc()
	}

	switch {
	case o == nil && e != promote:
		j.progress.emit(Event{Type: "state", State: st.State})
	case to == phInterrupted:
		// No "done" event: the stream is not over, it continues (with its
		// sequence numbering preserved) after the next server start.
		j.progress.emit(Event{Type: "state", State: st.State, Error: o.err})
	case to.finished():
		var res *JobResult
		if o.result != nil {
			r := *o.result
			res = &r
		}
		j.progress.emit(Event{Type: "done", State: st.State, Result: res, Error: o.err, Time: o.at})
	}

	if s.jnl != nil {
		switch e {
		case admitHit, admitFollow, admitQueue:
			// A job that finishes at admission shares its finish record's
			// fsync.
			sub := j.submitRecord()
			sub.durable = e != admitHit
			*w = append(*w, sub)
		case start:
			*w = append(*w, j.startRecord(j.attempt))
		}
		switch {
		case to == phInterrupted:
			// Not terminal: replay re-admits the job. Fsynced because it is
			// written at shutdown, when losing it would cost the next
			// process the interrupt watermark.
			*w = append(*w, jwrite{rec: journal.Record{
				Kind: journal.KindInterrupt, ID: j.id, State: string(StateInterrupted), EventSeq: j.progress.lastSeq(),
			}, durable: true})
		case to.finished() && e != restore:
			*w = append(*w, j.finishRecord())
		}
	}
	if e == start {
		j.attempt++
	}

	if to == phDone && (e == settle || e == restore) && j.key != "" && o.result != nil {
		for n := s.cache.put(cacheEntry{key: j.key, version: j.version, result: *o.result}); n > 0; n-- {
			s.met.cacheEvLRU.Inc()
		}
	}
	if to.finished() {
		s.retained = append(s.retained, j)
	}
	if from == phNone {
		s.evictLocked(now) // every admission applies the retention bounds
	}
	if e != settle || j.flight == nil {
		return nil
	}
	return s.settleFlightLocked(j.flight, o, w)
}

// settleFlightLocked hands a settled leader's flight on. A done leader
// completes every follower from its result (it was just cached); a failed,
// expired or interrupted one is never cached and promotes its first
// follower, which then runs on the same worker under its own policy — a
// poisoned leader never poisons the jobs behind it. Caller holds s.mu.
func (s *Server) settleFlightLocked(f *flight, o *outcome, w *[]jwrite) *job {
	if o.to != phDone && len(f.followers) > 0 {
		next := f.followers[0]
		f.followers = f.followers[1:]
		s.moveLocked(next, promote, nil, w)
		return next
	}
	delete(s.flights, f.key)
	for _, fj := range f.followers {
		r := *o.result
		s.moveLocked(fj, coalesce, &outcome{to: phDone, result: &r}, w)
	}
	f.followers = nil
	return nil
}

// placeLocked resolves the version a new leader runs on: the fleet
// pseudo-version for a fleet job, the pinned version, or else the pool member
// that would finish it soonest — the least predicted outstanding work once
// this job's predicted seconds (perfmodel.Predictor, fitted online from
// completed solves, cold-started from the static machine models) are added.
// Caller holds s.mu.
func (s *Server) placeLocked(j *job) string {
	switch {
	case j.spec.Fleet:
		return FleetVersion
	case j.spec.Version != "":
		return j.spec.Version
	}
	cells, iters := j.workEstimate()
	best, bestDone := "", 0.0
	for _, v := range s.opts.Versions {
		done := s.ledger[v].sec + s.pred.Predict(v, cells, iters).Seconds
		if best == "" || done < bestDone {
			best, bestDone = v, done
		}
	}
	return best
}

// chargeLocked takes a version slot for j: one outstanding job and its
// predicted seconds. Caller holds s.mu.
func (s *Server) chargeLocked(j *job) {
	if j.version != FleetVersion {
		cells, iters := j.workEstimate()
		j.predSec = s.pred.Predict(j.version, cells, iters).Seconds
	}
	l := s.ledger[j.version]
	l.jobs++
	l.sec += j.predSec
	s.ledger[j.version] = l
}

// releaseLocked gives j's version slot back. Caller holds s.mu.
func (s *Server) releaseLocked(j *job) {
	l := s.ledger[j.version]
	l.jobs--
	l.sec -= j.predSec
	// Refunds arrive in a different order than charges, so the float ledger
	// keeps a rounding residue; with no job outstanding it is exactly zero.
	if l.sec < 0 || l.jobs == 0 {
		l.sec = 0
	}
	s.ledger[j.version] = l
}

// evictLocked enforces the retention bounds by popping the finished-order
// queue: the earliest-finished jobs go while more than RetainJobs are kept
// or while the head is older than RetainAge. Queued and running jobs are
// never in the queue, and no job is looked at but the evicted ones and the
// head it stops at. Caller holds s.mu.
func (s *Server) evictLocked(now time.Time) {
	n := 0
	for ; len(s.retained) > 0; n++ {
		head := s.retained[0]
		if len(s.retained) <= s.opts.RetainJobs &&
			(s.opts.RetainAge <= 0 || now.Sub(head.status.Finished) <= s.opts.RetainAge) {
			break
		}
		s.retained[0] = nil // unpin the evicted job
		s.retained = s.retained[1:]
		delete(s.jobs, head.id)
	}
	if n > 0 {
		s.met.jobsEvicted.Add(float64(n))
	}
}

// census returns a gauge callback counting the jobs in one phase.
func (s *Server) census(p phase) func() float64 {
	return func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.phases[p])
	}
}
