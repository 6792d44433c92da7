package serve

// The durable job plane: everything that makes an accepted job survive a
// server crash. With Options.StateDir set, Submit acknowledges only after a
// write-ahead journal record is on disk, workers journal dispatch attempts
// and progress watermarks, and New replays the journal to rebuild the job
// store — restoring finished jobs verbatim and re-admitting unfinished ones
// so they resume (from their per-job checkpoint when they have one). The
// journal lives in StateDir/journal, per-job driver checkpoints in
// StateDir/ckpt. Without a StateDir every function in this file is a no-op
// and the server keeps its in-memory-only behaviour.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/warwick-hpsc/tealeaf-go/internal/checkpoint"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/serve/journal"
)

// errInterrupted is the cancellation cause Drain plants in the interrupt
// context when its budget expires: in-flight jobs settle as StateInterrupted
// (resumable by the next server process) instead of failed. It flows through
// driver.RunResilientCtx and fleet.RunJob as the context cause, so solved
// can classify the outcome with errors.Is.
var errInterrupted = errors.New("serve: job interrupted by server shutdown")

// compactSegments is the journal size (in live segments) past which a
// terminal record triggers compaction.
const compactSegments = 4

// ReplaySummary reports what startup journal replay reconstructed; exposed
// via Server.Replay for the startup log line and for tests.
type ReplaySummary struct {
	// Records and Segments mirror journal.Info: valid records recovered and
	// live segment files (including the fresh active one).
	Records  int
	Segments int
	// Torn reports at least one segment ended mid-record — expected after a
	// crash; the valid prefix was kept.
	Torn bool
	// Jobs is how many jobs were reconstructed into the store.
	Jobs int
	// Finished of those were already terminal and restored verbatim.
	Finished int
	// Resumed were unfinished and re-admitted for dispatch.
	Resumed int
	// GaveUp were unfinished but had exhausted their resume budget and were
	// failed with a typed error instead of re-admitted.
	GaveUp int
	// Dropped records named a job with no submit record — a submission the
	// server never acknowledged — and were discarded.
	Dropped int
}

// Replay returns what startup journal replay reconstructed (all zero without
// a StateDir).
func (s *Server) Replay() ReplaySummary { return s.replay }

// jobCkptPath is where a job's driver checkpoints are mirrored on disk.
func (s *Server) jobCkptPath(id string) string {
	return filepath.Join(s.opts.StateDir, "ckpt", id+".ckpt")
}

// jappend appends one record, folding the outcome into the journal metrics.
// Append failures degrade durability but never fail the job: the solve
// result the client is waiting on is still correct.
func (s *Server) jappend(rec journal.Record, durable bool) {
	if s.jnl == nil {
		return
	}
	n, err := s.jnl.Append(rec, durable)
	if err != nil {
		s.met.journalErrors.Inc()
		if s.opts.Log != nil {
			fmt.Fprintf(s.opts.Log, "serve: journal append %s %s: %v\n", rec.Kind, rec.ID, err)
		}
		return
	}
	s.met.journalRecords.Inc()
	s.met.journalBytes.Add(float64(n))
}

// submitRecord, startRecord and finishRecord render a job's journal records
// from its current state. Submit and finish are fsynced (the submit record is
// what makes an acknowledgement durable); a start is not — the write reaches
// the kernel immediately (surviving a process kill), and budget accounting
// only needs to be right for attempts that observably ran. Caller holds s.mu.
func (j *job) submitRecord() jwrite {
	return jwrite{rec: journal.Record{
		Kind:     journal.KindSubmit,
		ID:       j.id,
		Seq:      j.seq,
		Version:  j.version,
		EventSeq: j.progress.lastSeq(),
		Wall:     j.status.Submitted,
	}, spec: &j.spec, durable: true}
}

func (j *job) startRecord(attempt int) jwrite {
	return jwrite{rec: journal.Record{
		Kind:     journal.KindStart,
		ID:       j.id,
		Attempt:  attempt,
		Version:  j.version,
		EventSeq: j.progress.lastSeq(),
	}}
}

func (j *job) finishRecord() jwrite {
	return jwrite{rec: journal.Record{
		Kind:     journal.KindFinish,
		ID:       j.id,
		State:    string(j.status.State),
		Error:    j.status.Error,
		EventSeq: j.progress.lastSeq(),
		Wall:     j.status.Finished,
	}, result: j.status.Result, durable: true, ended: j}
}

// render marshals the record's spec and result.
func (x jwrite) render() (journal.Record, error) {
	rec := x.rec
	var err error
	if x.spec != nil {
		rec.Spec, err = json.Marshal(x.spec)
	}
	if x.result != nil && err == nil {
		rec.Result, err = json.Marshal(x.result)
	}
	return rec, err
}

// journal appends the records lifecycle edges owed, in order. A finish
// record is the job's last: its on-disk recovery state goes (it can never be
// resumed again) and the journal gets a chance to compact.
func (s *Server) journal(w []jwrite) {
	for _, x := range w {
		rec, err := x.render()
		if err != nil {
			s.met.journalErrors.Inc()
			continue
		}
		s.jappend(rec, x.durable)
		if x.ended != nil {
			s.cleanupJobState(x.ended, State(rec.State))
			s.maybeCompact()
		}
	}
}

// journalProgress advances the job's replay watermark: after a crash the
// rebuilt progress stream seeds its sequence past this point, so a client
// resuming with Last-Event-ID never sees a sequence number reused.
func (s *Server) journalProgress(j *job, step int) {
	s.jappend(journal.Record{
		Kind:     journal.KindProgress,
		ID:       j.id,
		Step:     step,
		EventSeq: j.progress.lastSeq(),
	}, false)
}

// cleanupJobState removes the per-job recovery files of a terminal job: the
// driver checkpoint pair and its lock sidecar, and — for a completed fleet
// job — the job's fleet directory (a failed or expired fleet job keeps its
// directory so an operator can inspect or manually resume it).
func (s *Server) cleanupJobState(j *job, st State) {
	p := s.jobCkptPath(j.id)
	os.Remove(p)
	os.Remove(checkpoint.PrevPath(p))
	os.Remove(p + ".lock")
	if j.spec.Fleet && st == StateDone && s.opts.Fleet.Dir != "" {
		os.RemoveAll(filepath.Join(s.opts.Fleet.Dir, j.id))
	}
}

// maybeCompact replaces the journal's old segments with a snapshot of the
// live store when the segment count has grown past the threshold. At most
// one compaction runs at a time; contenders simply skip (the next terminal
// record will try again).
func (s *Server) maybeCompact() {
	if s.jnl == nil || !s.compactMu.TryLock() {
		return
	}
	defer s.compactMu.Unlock()
	if s.jnl.Segments() < compactSegments {
		return
	}
	before := s.jnl.ActiveSeq()
	if err := s.jnl.CompactBefore(before, s.snapshotRecords()); err != nil {
		s.met.journalErrors.Inc()
		if s.opts.Log != nil {
			fmt.Fprintf(s.opts.Log, "serve: journal compact: %v\n", err)
		}
		return
	}
	s.met.journalCompactions.Inc()
}

// snapshotRecords renders the live job store as journal records, in
// submission order — the minimal set whose replay reconstructs the same
// store. Replay merges by job ID, so these may coexist with (and supersede)
// the incremental records still in the active segment.
func (s *Server) snapshotRecords() []journal.Record {
	var w []jwrite
	s.mu.Lock()
	for _, j := range bySeq(s.storeLocked()) {
		w = append(w, j.submitRecord())
		if j.attempt > 0 {
			w = append(w, j.startRecord(j.attempt-1))
		}
		if j.phase.finished() {
			w = append(w, j.finishRecord())
		}
	}
	s.mu.Unlock()
	recs := make([]journal.Record, 0, len(w))
	for _, x := range w {
		if rec, err := x.render(); err == nil {
			recs = append(recs, rec)
		}
	}
	return recs
}

// closeJournal seals the journal exactly once, at the end of Drain when no
// worker can append anymore.
func (s *Server) closeJournal() {
	s.jnlOnce.Do(func() {
		if s.jnl != nil {
			if err := s.jnl.Close(); err != nil && s.opts.Log != nil {
				fmt.Fprintf(s.opts.Log, "serve: journal close: %v\n", err)
			}
		}
	})
}

// openJournal opens (or creates) the state directory, replays the journal
// and rebuilds the job store. Called from New before any worker starts, so
// no lock ordering is in play yet.
func (s *Server) openJournal() error {
	if err := os.MkdirAll(filepath.Join(s.opts.StateDir, "ckpt"), 0o755); err != nil {
		return fmt.Errorf("serve: state dir: %w", err)
	}
	w, recs, info, err := journal.Open(filepath.Join(s.opts.StateDir, "journal"), journal.Options{
		OnSync: s.met.journalSyncs.Inc,
	})
	if err != nil {
		return fmt.Errorf("serve: opening job journal: %w", err)
	}
	s.jnl = w
	s.replay = ReplaySummary{Records: info.Records, Segments: info.Segments, Torn: info.Torn}
	s.met.journalReplayed.Add(float64(info.Records))
	s.reg.GaugeFunc("teaserve_journal_segments", "live job-journal segment files",
		func() float64 { return float64(w.Segments()) })
	s.rebuild(recs)
	return nil
}

// rjob is the per-job merge of replayed records. Merging is order-agnostic
// within a job: journaling happens outside the server lock, so a follower's
// finish record can legitimately precede its submit record, and compaction
// leaves duplicates of everything.
type rjob struct {
	hasSubmit bool
	seq       int
	spec      json.RawMessage
	submitted time.Time
	version   string
	attempt   int // next dispatch attempt: max(start.Attempt)+1 over all starts
	watermark int // max EventSeq seen: the progress-stream continuity point
	finished  bool
	state     State
	result    json.RawMessage
	errStr    string
	endedAt   time.Time
}

// rebuild folds replayed records into the job store and feeds every job
// through the replay edges: finished jobs are restored verbatim (their
// results re-seed the cache, and they re-enter the retention index in the
// order they finished, so the rebuilt store already obeys RetainJobs),
// unfinished ones are re-admitted and scheduled for resume. It runs inside
// New before the worker pool starts.
func (s *Server) rebuild(recs []journal.Record) {
	byID := make(map[string]*rjob)
	for _, r := range recs {
		if r.ID == "" {
			continue
		}
		rj := byID[r.ID]
		if rj == nil {
			rj = &rjob{}
			byID[r.ID] = rj
		}
		switch r.Kind {
		case journal.KindSubmit:
			if !rj.hasSubmit {
				rj.hasSubmit = true
				rj.seq = r.Seq
				rj.spec = r.Spec
				rj.submitted = r.Wall
			}
			if r.Seq > s.seq {
				s.seq = r.Seq
			}
		case journal.KindStart:
			if r.Attempt+1 > rj.attempt {
				rj.attempt = r.Attempt + 1
			}
		case journal.KindFinish:
			rj.finished = true
			rj.state = State(r.State)
			rj.result = r.Result
			rj.errStr = r.Error
			rj.endedAt = r.Wall
		}
		if r.Version != "" {
			rj.version = r.Version
		}
		if r.EventSeq > rj.watermark {
			rj.watermark = r.EventSeq
		}
	}

	ids := make([]string, 0, len(byID))
	for id, rj := range byID {
		if !rj.hasSubmit {
			// Never acknowledged to a client: whatever partial records exist
			// (a finish that outran its submit is impossible — finish implies
			// the submit was journaled first in the same process — but a
			// corrupt segment can orphan records) are discarded.
			s.replay.Dropped++
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		x, y := byID[ids[a]], byID[ids[b]]
		if x.finished != y.finished {
			return x.finished
		}
		if x.finished && !x.endedAt.Equal(y.endedAt) {
			return x.endedAt.Before(y.endedAt)
		}
		return x.seq < y.seq
	})

	for _, id := range ids {
		rj := byID[id]
		var spec JobSpec
		specErr := json.Unmarshal(rj.spec, &spec)
		var cfg config.Config
		if specErr == nil {
			cfg, specErr = resolveSpec(spec)
		}
		j := &job{
			id:       id,
			seq:      rj.seq,
			spec:     spec,
			cfg:      cfg,
			version:  rj.version,
			attempt:  rj.attempt,
			resumed:  rj.attempt > 0,
			progress: newProgress(),
			status:   JobStatus{ID: id, Submitted: rj.submitted},
		}
		if specErr == nil {
			j.cfgHash = cfg.CanonicalHash()
		}
		j.progress.seed(rj.watermark)
		s.replay.Jobs++
		var cause error
		switch {
		case rj.finished:
			s.replay.Finished++
			o := &outcome{to: phFailed, err: rj.errStr, at: rj.endedAt}
			if len(rj.result) > 0 {
				var r JobResult
				if json.Unmarshal(rj.result, &r) == nil {
					o.result = &r
				}
			}
			switch rj.state {
			case StateDone:
				o.to = phDone
			case StateExpired:
				o.to = phExpired
			}
			if j.cfgHash != "" && s.cacheable(spec) && j.version != "" {
				j.key = cacheKey(j.cfgHash, j.version, spec)
			}
			s.move(j, restore, o)
			continue
		case specErr != nil:
			// The spec no longer resolves (a registry version removed across
			// the restart, say): the job cannot run, so it fails typed rather
			// than resuming into a crash.
			cause = fmt.Errorf("serve: replayed job %s no longer resolves: %w", id, specErr)
		case spec.Fleet && !s.fleetEnabled():
			cause = fmt.Errorf("serve: replayed fleet job %s: fleet is not enabled on this server", id)
		case rj.attempt >= s.opts.ResumeBudget:
			s.met.resumeGaveUp.Inc()
			s.replay.GaveUp++
			cause = fmt.Errorf(
				"serve: resume budget exhausted: job took %d dispatch attempts without finishing (budget %d)",
				rj.attempt, s.opts.ResumeBudget)
		default:
			s.resume(j)
			continue
		}
		// A typed terminal failure, journaled so the next replay sees the job
		// finished.
		s.move(j, replayFail, &outcome{to: phFailed, result: &JobResult{Partial: true}, err: cause.Error()})
	}
}

// resume re-admits an unfinished replayed job. Identical cacheable jobs
// re-coalesce into one flight, exactly as their original submissions did.
// A leader that never started is queued immediately; one that had started
// when the server died waits out a full-jittered backoff first
// (attempt-scaled), so a job that kills the server cannot hot-loop it.
func (s *Server) resume(j *job) {
	s.replay.Resumed++
	s.mu.Lock()
	if j.version == "" {
		// The crash beat the submit record's version resolution (possible
		// only for records from a torn tail): resolve it now.
		j.version = s.placeLocked(j)
	}
	e := resumeQueue
	if s.cacheable(j.spec) && j.cfgHash != "" {
		j.key = cacheKey(j.cfgHash, j.version, j.spec)
		if f, ok := s.flights[j.key]; ok {
			j.flight, e = f, resumeFollow
			f.followers = append(f.followers, j)
		} else {
			j.flight = &flight{key: j.key}
			s.flights[j.key] = j.flight
		}
	}
	var w []jwrite
	s.moveLocked(j, e, nil, &w)
	s.mu.Unlock()
	s.journal(w)
	if e == resumeFollow {
		return
	}

	if j.attempt == 0 {
		// Never dispatched: nothing to back off from. An unbounded push cannot fail
		// here — the server is still being constructed, so it is not
		// draining, and replayed jobs bypass the admission cap (they were
		// already admitted once).
		if err := s.sched.push(j, false); err != nil {
			s.interruptUnstarted(j)
		}
		return
	}
	delay := driver.BackoffDelay(s.opts.ResumeBackoff, j.attempt)
	s.resumeWG.Add(1)
	go func() {
		defer s.resumeWG.Done()
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-s.drainCh:
			// Shutting down before the backoff elapsed: hand the job to the
			// next process instead of racing the drain.
		}
		if err := s.sched.push(j, false); err != nil {
			s.interruptUnstarted(j)
		}
	}()
}

// interruptUnstarted settles a queued leader that shutdown reached before
// any worker ran it, and in turn each follower its flight promotes: they
// stay interrupted (no budget burned) and the next process resumes them.
func (s *Server) interruptUnstarted(j *job) {
	for j != nil {
		j = s.move(j, settle, notStarted())
	}
}

// interrupted reports whether shutdown has cancelled the interrupt context —
// the signal for workers to stop dispatching and settle queued jobs as
// resumable interruptions.
func (s *Server) interrupted() bool { return context.Cause(s.intCtx) != nil }
