package serve

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/fleet"
	"github.com/warwick-hpsc/tealeaf-go/internal/registry"
	"github.com/warwick-hpsc/tealeaf-go/internal/serve/journal"
	"github.com/warwick-hpsc/tealeaf-go/internal/solver"
)

// serialReference is the fault-free single-process run a restored or resumed
// job must reproduce bitwise.
func serialReference(t *testing.T, cfg config.Config) driver.Result {
	t.Helper()
	v, err := registry.Get("manual-serial")
	if err != nil {
		t.Fatal(err)
	}
	port, err := v.Make(registry.Params{})
	if err != nil {
		t.Fatal(err)
	}
	defer port.Close()
	res, err := driver.Run(cfg, port, solver.New(solver.FromConfig(&cfg)), nil)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return res
}

// assertTotalsMatch compares a job result against a reference run at the
// repo-wide 1e-12 bar.
func assertTotalsMatch(t *testing.T, ref driver.Result, r *JobResult, label string) {
	t.Helper()
	if r == nil {
		t.Fatalf("%s: job has no result", label)
	}
	d, err := driver.CompareTotalsChecked(ref.Final, driver.Totals{
		Volume: r.Volume, Mass: r.Mass, InternalEnergy: r.InternalEnergy, Temperature: r.Temperature,
	})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if d > 1e-12 {
		t.Errorf("%s diverges from the fault-free run by %g", label, d)
	}
}

// TestDurableRestartRestoresStoreAndCache: a clean restart against the same
// state dir must reproduce the job store — finished jobs verbatim, lifecycle
// counters intact, and the result cache re-seeded so identical submissions
// hit without a solve.
func TestDurableRestartRestoresStoreAndCache(t *testing.T) {
	state := t.TempDir()
	opts := Options{QueueSize: 8, Workers: 2, CacheSize: 8, StateDir: state}

	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	okJob, err := s.Submit(JobSpec{Deck: deck(24, 2)})
	if err != nil {
		t.Fatal(err)
	}
	badJob, err := s.Submit(JobSpec{Deck: deck(24, 2), FaultSpec: "panic@1.1"})
	if err != nil {
		t.Fatal(err)
	}
	okSt := waitJob(t, s, okJob.ID)
	badSt := waitJob(t, s, badJob.ID)
	if okSt.State != StateDone || badSt.State != StateFailed {
		t.Fatalf("first life states: %s / %s", okSt.State, badSt.State)
	}
	s.Close()

	s2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rep := s2.Replay()
	if rep.Jobs != 2 || rep.Finished != 2 || rep.Resumed != 0 || rep.Dropped != 0 {
		t.Fatalf("replay summary: %+v", rep)
	}
	if rep.Records == 0 || rep.Segments == 0 {
		t.Errorf("replay recovered nothing: %+v", rep)
	}

	got, okNow := s2.Job(okJob.ID)
	if !okNow || got.State != StateDone || got.Result == nil {
		t.Fatalf("restored done job: %+v", got)
	}
	if got.Result.Temperature != okSt.Result.Temperature || got.Result.Steps != okSt.Result.Steps {
		t.Errorf("restored result drifted: %+v vs %+v", got.Result, okSt.Result)
	}
	if gotBad, ok := s2.Job(badJob.ID); !ok || gotBad.State != StateFailed || gotBad.Error == "" {
		t.Errorf("restored failed job: %+v", gotBad)
	}

	// Counters restored: the accounting identity survives the restart.
	if sub, done, failed := s2.met.submitted.Value(), s2.met.completed.Value(), s2.met.failed.Value(); sub != 2 || done != 1 || failed != 1 {
		t.Errorf("restored counters submitted=%v completed=%v failed=%v", sub, done, failed)
	}

	// The cache was re-seeded from the journaled result: an identical deck
	// completes as a hit, without a solve.
	hit, err := s2.Submit(JobSpec{Deck: deck(24, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if hit = waitJob(t, s2, hit.ID); !hit.Cached {
		t.Errorf("identical submission after restart not served from the cache: %+v", hit)
	}
	if hit.Result.Temperature != okSt.Result.Temperature {
		t.Errorf("cache-restored result drifted: %v vs %v", hit.Result.Temperature, okSt.Result.Temperature)
	}
}

// craftJournal writes hand-built records into a fresh journal under
// state/journal, simulating what a crashed server left behind.
func craftJournal(t *testing.T, state string, recs ...journal.Record) {
	t.Helper()
	w, _, _, err := journal.Open(filepath.Join(state, "journal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if _, err := w.Append(r, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func mustSpec(t *testing.T, spec JobSpec) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReplayResumesNeverStartedJob: a journal holding an acknowledged but
// never-dispatched job must re-admit it immediately on startup, finish it
// with the fault-free answer, and keep the progress sequence past the
// replayed watermark so Last-Event-ID resumption never sees reuse.
func TestReplayResumesNeverStartedJob(t *testing.T) {
	state := t.TempDir()
	spec := JobSpec{Deck: deck(24, 2)}
	craftJournal(t, state, journal.Record{
		Kind: journal.KindSubmit, ID: "job-000001", Seq: 1,
		Spec: mustSpec(t, spec), Version: "manual-serial", EventSeq: 7, Wall: time.Now(),
	})

	s, err := New(Options{QueueSize: 4, Workers: 1, StateDir: state})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rep := s.Replay(); rep.Resumed != 1 || rep.GaveUp != 0 {
		t.Fatalf("replay summary: %+v", rep)
	}
	st := waitJob(t, s, "job-000001")
	if st.State != StateDone {
		t.Fatalf("resumed job ended %s: %s", st.State, st.Error)
	}
	assertTotalsMatch(t, serialReference(t, mustParse(t, spec.Deck)), st.Result, "resumed job")
	if got := s.met.resumed.Value(); got != 1 {
		t.Errorf("resumed counter = %v, want 1", got)
	}

	// Sequence continuity: every event this process emitted must be past the
	// replayed watermark.
	j, ok := s.jobByID("job-000001")
	if !ok {
		t.Fatal("job record vanished")
	}
	evs, _, done := j.progress.since(0)
	if !done || len(evs) == 0 {
		t.Fatalf("no finished event stream: %d events, done=%v", len(evs), done)
	}
	for _, ev := range evs {
		if ev.Seq <= 7 {
			t.Errorf("event %q reused sequence %d at or below the replayed watermark 7", ev.Type, ev.Seq)
		}
	}
}

// TestReplayBudgetExhaustedFailsTyped: a job whose journal shows it already
// burned every dispatch attempt must not resume again — replay settles it
// with a typed failure and counts the give-up.
func TestReplayBudgetExhaustedFailsTyped(t *testing.T) {
	state := t.TempDir()
	spec := JobSpec{Deck: deck(24, 2)}
	recs := []journal.Record{{
		Kind: journal.KindSubmit, ID: "job-000001", Seq: 1,
		Spec: mustSpec(t, spec), Version: "manual-serial", Wall: time.Now(),
	}}
	for a := 0; a < 3; a++ {
		recs = append(recs, journal.Record{Kind: journal.KindStart, ID: "job-000001", Attempt: a})
	}
	craftJournal(t, state, recs...)

	s, err := New(Options{QueueSize: 4, Workers: 1, StateDir: state, ResumeBudget: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rep := s.Replay(); rep.GaveUp != 1 || rep.Resumed != 0 {
		t.Fatalf("replay summary: %+v", rep)
	}
	st, ok := s.Job("job-000001")
	if !ok || st.State != StateFailed {
		t.Fatalf("over-budget job: %+v", st)
	}
	if !strings.Contains(st.Error, "resume budget exhausted") {
		t.Errorf("error not typed: %q", st.Error)
	}
	if got := s.met.resumeGaveUp.Value(); got != 1 {
		t.Errorf("resume_gaveup counter = %v, want 1", got)
	}
	// The give-up is itself journaled terminal: the next replay restores it
	// finished instead of giving up again.
	s.Close()
	s2, err := New(Options{QueueSize: 4, Workers: 1, StateDir: state, ResumeBudget: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rep := s2.Replay(); rep.Finished != 1 || rep.GaveUp != 0 {
		t.Errorf("second replay summary: %+v", rep)
	}
}

// TestDrainInterruptsAndRestartResumes is the single-process crash-safety
// path end to end: a checkpointed job is cut off by an expired drain, settles
// interrupted (not failed), and the next server against the same state dir
// resumes it from the on-disk checkpoint to the bitwise fault-free answer.
func TestDrainInterruptsAndRestartResumes(t *testing.T) {
	state := t.TempDir()
	opts := Options{
		QueueSize: 4, Workers: 1, StateDir: state,
		Recovery: driver.RecoveryPolicy{CheckpointEvery: 2, MaxRetries: 2},
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(JobSpec{Deck: deck(64, 120)})
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the job to be genuinely mid-flight: its checkpoint mirror
	// exists on disk.
	ckpt := s.jobCkptPath(st.ID)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never wrote its checkpoint mirror")
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // zero budget: drain must interrupt, not wait
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain with an expired budget reported success")
	}
	cut, _ := s.Job(st.ID)
	if cut.State != StateInterrupted {
		t.Fatalf("job state after interrupt = %s (%s), want interrupted", cut.State, cut.Error)
	}
	j, _ := s.jobByID(st.ID)
	watermark := j.progress.lastSeq()

	s2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rep := s2.Replay(); rep.Resumed != 1 {
		t.Fatalf("replay summary: %+v", rep)
	}
	final := waitJob(t, s2, st.ID)
	if final.State != StateDone {
		t.Fatalf("resumed job ended %s: %s", final.State, final.Error)
	}
	assertTotalsMatch(t, serialReference(t, mustParse(t, deck(64, 120))), final.Result, "resumed checkpointed job")

	// The resumed stream carried on past the pre-crash watermark.
	j2, _ := s2.jobByID(st.ID)
	evs, _, _ := j2.progress.since(0)
	for _, ev := range evs {
		if ev.Seq <= watermark {
			t.Errorf("post-restart event %q reused sequence %d (watermark %d)", ev.Type, ev.Seq, watermark)
		}
	}
	// Terminal settlement cleaned the checkpoint mirror up.
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("checkpoint mirror survived terminal settlement: %v", err)
	}
	if got := s2.met.resumed.Value(); got != 1 {
		t.Errorf("resumed counter = %v, want 1", got)
	}
}

// TestServeDrainResumesFleetJob closes the fleet loop: a fleet job drained
// mid-solve leaves resumable on-disk state (fleet.ErrDrained semantics), the
// restarted server re-enters fleet.RunJob against the same job directory,
// and the finished job matches the fault-free multi-process answer bitwise.
func TestServeDrainResumesFleetJob(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet jobs spawn worker processes; skipped in -short")
	}
	state := t.TempDir()
	fleetDir := t.TempDir()
	opts := fleetServerOptions()
	opts.StateDir = state
	opts.Fleet.Dir = fleetDir
	opts.Fleet.CheckpointEvery = 1

	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Forty steps keep the job running well past its first checkpoint: a
	// completed fleet job's directory is reclaimed, so a job that finishes
	// between two polls below would never be seen resumable.
	st, err := s.Submit(JobSpec{Deck: deck(16, 40), Fleet: true})
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the fleet has committed a resumable checkpoint.
	jobDir := filepath.Join(fleetDir, st.ID)
	deadline := time.Now().Add(90 * time.Second)
	for {
		if _, ok := fleet.ProbeResume(jobDir); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet job never committed a checkpoint")
		}
		time.Sleep(10 * time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain with an expired budget reported success")
	}
	cut, _ := s.Job(st.ID)
	if cut.State != StateInterrupted {
		t.Fatalf("fleet job after interrupt = %s (%s), want interrupted", cut.State, cut.Error)
	}
	if !strings.Contains(cut.Error, "drained") {
		t.Errorf("interrupt error does not surface the fleet drain: %q", cut.Error)
	}
	if _, ok := fleet.ProbeResume(jobDir); !ok {
		t.Fatal("drained fleet job left no resumable state")
	}
	j, _ := s.jobByID(st.ID)
	watermark := j.progress.lastSeq()

	s2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rep := s2.Replay(); rep.Resumed != 1 {
		t.Fatalf("replay summary: %+v", rep)
	}
	final := waitJob(t, s2, st.ID)
	if final.State != StateDone {
		t.Fatalf("resumed fleet job ended %s: %s", final.State, final.Error)
	}
	ref := fleetReference(t, mustParse(t, deck(16, 40)), 3)
	assertTotalsMatch(t, ref, final.Result, "resumed fleet job")

	j2, _ := s2.jobByID(st.ID)
	evs, _, _ := j2.progress.since(0)
	for _, ev := range evs {
		if ev.Seq <= watermark {
			t.Errorf("post-restart event %q reused sequence %d (watermark %d)", ev.Type, ev.Seq, watermark)
		}
	}
	// A completed fleet job's directory is reclaimed.
	if _, err := os.Stat(jobDir); !os.IsNotExist(err) {
		t.Errorf("completed fleet job directory survived: %v", err)
	}
}

// TestJournalCompactionKeepsStore drives enough terminal records through a
// small-segment journal to force compaction, then restarts and checks
// nothing was lost or duplicated.
func TestJournalCompactionKeepsStore(t *testing.T) {
	state := t.TempDir()
	opts := Options{QueueSize: 32, Workers: 2, StateDir: state}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Small enough decks that many jobs finish fast; enough of them that the
	// journal rolls segments and compacts (1 MiB default segments are too
	// big, so append a burst of distinct decks instead of tuning internals).
	var ids []string
	for i := 0; i < 12; i++ {
		st, err := s.Submit(JobSpec{Deck: deck(16, 1+i%3)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if st := waitJob(t, s, id); st.State != StateDone {
			t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
		}
	}
	// Force a compaction regardless of segment count to exercise the
	// snapshot path end to end.
	s.compactMu.Lock()
	before := s.jnl.ActiveSeq()
	recs := s.snapshotRecords()
	if err := s.jnl.CompactBefore(before, recs); err != nil {
		t.Fatalf("compact: %v", err)
	}
	s.compactMu.Unlock()
	s.Close()

	s2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rep := s2.Replay()
	if rep.Jobs != 12 || rep.Finished != 12 {
		t.Fatalf("after compaction replay lost jobs: %+v", rep)
	}
	for _, id := range ids {
		if st, ok := s2.Job(id); !ok || st.State != StateDone {
			t.Errorf("job %s missing or unfinished after compaction restart: %+v", id, st)
		}
	}
	if sub := s2.met.submitted.Value(); sub != 12 {
		t.Errorf("submitted counter after compaction restart = %v, want 12", sub)
	}
}
