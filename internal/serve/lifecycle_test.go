package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/warwick-hpsc/tealeaf-go/internal/serve/journal"
)

// waitIdle waits until no job is queued, following or running.
func waitIdle(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		s.mu.Lock()
		busy := s.phases[phQueued] + s.phases[phFollower] + s.phases[phRunning]
		s.mu.Unlock()
		if busy == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server still has %d live jobs", busy)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// assertLedgerZero checks that no version has outstanding work left: every
// slot taken was given back, and the predicted seconds read exactly zero.
func assertLedgerZero(t *testing.T, s *Server) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for v, l := range s.ledger {
		if l != (verLoad{}) {
			t.Errorf("idle server: version %s still holds %d jobs and %g predicted seconds", v, l.jobs, l.sec)
		}
	}
}

// TestVersionLedgerZeroWhenIdle: once a server is idle every version's
// outstanding job count and predicted seconds are exactly zero, whichever
// way its jobs left — including a promoted follower, which must take the
// slot it later releases.
func TestVersionLedgerZeroWhenIdle(t *testing.T) {
	t.Run("promotion", func(t *testing.T) {
		s, err := New(Options{QueueSize: 8, Workers: 1, CacheSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Submit(JobSpec{Deck: deck(64, 10)}); err != nil {
			t.Fatal(err)
		}
		// Queued behind the blocker: the leader expires at once, and its
		// follower (same deck, so same flight) is promoted and solves.
		leader, err := s.Submit(JobSpec{Deck: deck(96, 10), Deadline: Duration(time.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		follower, err := s.Submit(JobSpec{Deck: deck(96, 10)})
		if err != nil {
			t.Fatal(err)
		}
		if st := waitJob(t, s, leader.ID); st.State != StateExpired {
			t.Fatalf("leader ended %s, want expired", st.State)
		}
		if st := waitJob(t, s, follower.ID); st.State != StateDone || st.Coalesced {
			t.Fatalf("follower ended %s (coalesced %v), want a promoted solve", st.State, st.Coalesced)
		}
		waitIdle(t, s)
		assertLedgerZero(t, s)
	})
	t.Run("queue-full", func(t *testing.T) {
		s, err := New(Options{QueueSize: 1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		rejected := false
		for i := 0; i < 50 && !rejected; i++ {
			_, err := s.Submit(JobSpec{Deck: deck(48, 4+i)})
			if errors.Is(err, ErrQueueFull) {
				rejected = true
			} else if err != nil {
				t.Fatal(err)
			}
		}
		if !rejected {
			t.Fatal("queue never reported ErrQueueFull")
		}
		waitIdle(t, s)
		assertLedgerZero(t, s)
	})
	t.Run("drain-interrupt", func(t *testing.T) {
		s, err := New(Options{QueueSize: 8, Workers: 1, CacheSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []JobSpec{
			{Deck: deck(64, 200)}, {Deck: deck(48, 4)}, {Deck: deck(48, 4)}, {Deck: deck(32, 2), Version: "manual-omp"},
		} {
			if _, err := s.Submit(spec); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := s.Drain(ctx); err == nil {
			t.Fatal("drain with an expired budget reported success")
		}
		if got := s.met.interrupted.Value(); got == 0 {
			t.Fatal("drain interrupted nothing")
		}
		assertLedgerZero(t, s)
	})
	t.Run("replayed-follower", func(t *testing.T) {
		// Two unstarted journaled jobs on one deck rejoin one flight on
		// replay; the leader's deadline expires it, so the replayed follower
		// is promoted.
		state := t.TempDir()
		big := deck(96, 10)
		craftJournal(t, state,
			journal.Record{Kind: journal.KindSubmit, ID: "job-000001", Seq: 1, Version: "manual-serial", Wall: time.Now(),
				Spec: mustSpec(t, JobSpec{Deck: big, Deadline: Duration(time.Millisecond)})},
			journal.Record{Kind: journal.KindSubmit, ID: "job-000002", Seq: 2, Version: "manual-serial", Wall: time.Now(),
				Spec: mustSpec(t, JobSpec{Deck: big})},
		)
		s, err := New(Options{QueueSize: 4, Workers: 1, CacheSize: 8, StateDir: state})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if st := waitJob(t, s, "job-000002"); st.State != StateDone || st.Coalesced {
			t.Fatalf("replayed follower ended %s (coalesced %v), want a promoted solve", st.State, st.Coalesced)
		}
		waitIdle(t, s)
		assertLedgerZero(t, s)
	})
}

// lifeModel is the reference TestLifecycleModel holds the server to: the
// terminal states each accepted job's spec permits, and the rejections the
// current server life handed out.
type lifeModel struct {
	rng      *rand.Rand
	bursts   int
	unique   int
	allowed  map[string][]State
	rejected int
}

var (
	anyEnd    = []State{StateDone, StateExpired}
	doneOnly  = []State{StateDone}
	failsOnly = []State{StateFailed}
)

// next draws one submission: hot decks that hit the cache or coalesce, a
// slower deck new to each burst, half of whose copies carry a deadline too
// short to finish (expiry, and promotion of the copies queued behind),
// fault-injected jobs that fail, and unique decks — pinned or not, at every
// priority.
func (m *lifeModel) next() (JobSpec, []State) {
	spec, allowed := JobSpec{Deck: deck(64, 8+m.bursts)}, doneOnly
	switch r := m.rng.Intn(10); {
	case r < 3:
		spec.Deck = deck(16, 1+r%2)
	case r < 5:
	case r < 7:
		spec.Deadline, allowed = Duration(time.Millisecond), anyEnd
	case r < 8:
		spec.Deck, spec.FaultSpec, allowed = deck(16, 2), "panic@1.1", failsOnly
	default:
		m.unique++
		spec.Deck = deck(16+m.unique%24, 1+m.unique/24)
	}
	spec.Version = []string{"", "manual-serial", "manual-omp"}[m.rng.Intn(3)]
	spec.Priority = []string{"", "high", "normal", "low"}[m.rng.Intn(4)]
	return spec, allowed
}

// burst submits a few jobs back to back, recording what each may end as.
func (m *lifeModel) burst(t *testing.T, s *Server) {
	t.Helper()
	m.bursts++
	for n := 4 + m.rng.Intn(8); n > 0; n-- {
		spec, allowed := m.next()
		st, err := s.Submit(spec)
		switch {
		case errors.Is(err, ErrQueueFull):
			m.rejected++
		case err != nil:
			t.Fatalf("submit %+v: %v", spec, err)
		default:
			m.allowed[st.ID] = allowed
		}
	}
}

// check holds an idle server to the model. restoredDone and restoredEnded
// count the done and the finished jobs this server's replay restored (they
// ended without a solve here); drained says the server was drained on a
// short budget, so the jobs it cut off are interrupted instead of finished.
func (m *lifeModel) check(t *testing.T, s *Server, restoredDone, restoredEnded float64, drained bool) {
	t.Helper()
	jobs := s.Jobs() // applies the retention bounds before the scrape
	var b strings.Builder
	s.reg.WriteText(&b)
	exp := b.String()
	v := func(name string) float64 {
		x, ok := metricValue(t, exp, "teaserve_"+name)
		if !ok {
			t.Fatalf("metric teaserve_%s not exposed", name)
		}
		return x
	}
	completed, submitted := v("jobs_completed_total"), v("jobs_submitted_total")
	ended := completed + v("jobs_expired_total") + v("jobs_failed_total")
	interrupted := v("jobs_interrupted_total")
	// The accounting identities. A job completes by a solve that ran to done
	// (one teaserve_solve_seconds sample each), by collapsing onto one, or
	// from the cache; with expiries and failures in the mix, every ended job
	// is a solve, a collapse or a hit.
	followersHits := v("singleflight_followers_total") + v("cache_hits_total")
	if done := v("solve_seconds_count") + followersHits + restoredDone; completed != done {
		t.Errorf("completed %v != done solves + followers + hits + restored %v", completed, done)
	}
	if submitted != ended+interrupted || !drained && interrupted != 0 {
		t.Errorf("submitted %v != completed+expired+failed %v + interrupted %v", submitted, ended, interrupted)
	}
	// A drain cuts queued jobs off before they solve and running ones after.
	if run := v("solves_total") + followersHits + restoredEnded; run < ended || run > ended+interrupted {
		t.Errorf("solves+followers+hits+restored %v, want %v..%v", run, ended, ended+interrupted)
	}
	if submitted != float64(len(m.allowed)) {
		t.Errorf("submitted %v, but %d jobs were accepted", submitted, len(m.allowed))
	}
	if got := v("jobs_rejected_total"); got != float64(m.rejected) {
		t.Errorf("rejected %v, want %d", got, m.rejected)
	}

	finished := 0
	for i, st := range jobs {
		if i > 0 && st.ID <= jobs[i-1].ID {
			t.Errorf("Jobs() lists %s after %s: not submission order", st.ID, jobs[i-1].ID)
		}
		j, _ := s.jobByID(st.ID)
		evs, _, streamDone := j.progress.since(0)
		dones := 0
		for k, ev := range evs {
			if k > 0 && ev.Seq <= evs[k-1].Seq {
				t.Errorf("job %s: event seq %d after %d", st.ID, ev.Seq, evs[k-1].Seq)
			}
			if ev.Type == "done" {
				dones++
			}
		}
		last := evs[len(evs)-1]
		switch {
		case st.State.finished():
			finished++
			if !allows(m.allowed[st.ID], st.State) {
				t.Errorf("job %s ended %s (%s); its spec allows %v", st.ID, st.State, st.Error, m.allowed[st.ID])
			}
			if dones != 1 || last.Type != "done" || !streamDone {
				t.Errorf("job %s: %d done events, last %q", st.ID, dones, last.Type)
			}
		case drained && st.State == StateInterrupted:
			if dones != 0 || last.State != StateInterrupted {
				t.Errorf("interrupted job %s: %d done events, last %s/%s", st.ID, dones, last.Type, last.State)
			}
		default:
			t.Errorf("job %s is %s on an idle server", st.ID, st.State)
		}
	}
	if finished > s.opts.RetainJobs {
		t.Errorf("store keeps %d finished jobs, RetainJobs is %d", finished, s.opts.RetainJobs)
	}
	if got := v("jobs_evicted_total"); got != ended-float64(finished) {
		t.Errorf("evicted %v, want %v ended - %d retained", got, ended, finished)
	}
	assertLedgerZero(t, s)
}

func allows(states []State, st State) bool {
	for _, a := range states {
		if a == st {
			return true
		}
	}
	return false
}

// TestLifecycleModel drives seeded random traffic through a durable server,
// drains it on a short budget, restarts it on the same state directory and
// drives it again, holding it to the reference model at every quiet point:
// both accounting identities on /metrics, the retention bound, submission
// order, an idle version ledger, and one event stream per job that ends in
// exactly one done (or in an interruption before the restart).
func TestLifecycleModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			m := &lifeModel{rng: rand.New(rand.NewSource(seed)), allowed: map[string][]State{}}
			opts := Options{
				QueueSize: 8, Workers: 2, CacheSize: 16, RetainJobs: 6,
				Versions: []string{"manual-serial", "manual-omp"},
				StateDir: t.TempDir(), ResumeBackoff: 5 * time.Millisecond,
			}
			s, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				m.burst(t, s)
				waitIdle(t, s)
				m.check(t, s, 0, 0, false)
			}
			m.burst(t, s)
			// A solve long enough to be cut off mid-flight, then a drain whose
			// budget runs out first.
			long, err := s.Submit(JobSpec{Deck: deck(64, 40+int(seed))})
			if err != nil {
				t.Fatal(err)
			}
			m.allowed[long.ID] = doneOnly
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(m.rng.Intn(4))*time.Millisecond)
			if err := s.Drain(ctx); err == nil {
				t.Error("drain on a short budget cut nothing off")
			}
			cancel()
			m.check(t, s, 0, 0, true)
			var b strings.Builder
			s.reg.WriteText(&b)
			life1 := func(name string) float64 {
				x, _ := metricValue(t, b.String(), "teaserve_"+name+"_total")
				return x
			}
			done1, interrupted1 := life1("jobs_completed"), life1("jobs_interrupted")
			ended1 := done1 + life1("jobs_expired") + life1("jobs_failed")

			m.rejected = 0
			s2, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			s2.mu.Lock()
			if kept := len(s2.retained); kept > opts.RetainJobs {
				t.Errorf("replayed store keeps %d finished jobs, RetainJobs is %d", kept, opts.RetainJobs)
			}
			s2.mu.Unlock()
			rep := s2.Replay()
			if rep.Jobs != len(m.allowed) || rep.Finished != int(ended1) || rep.Resumed != int(interrupted1) ||
				rep.GaveUp != 0 || rep.Dropped != 0 {
				t.Errorf("replay %+v: want %d jobs, %v finished, %v resumed", rep, len(m.allowed), ended1, interrupted1)
			}
			waitIdle(t, s2)
			m.check(t, s2, done1, ended1, false)
			m.burst(t, s2)
			waitIdle(t, s2)
			m.check(t, s2, done1, ended1, false)
			t.Logf("%d jobs: first life %v done, %v expired, %v failed, %v interrupted, %v cache hits, %v followers; replay %+v",
				len(m.allowed), done1, life1("jobs_expired"), life1("jobs_failed"), interrupted1,
				life1("cache_hits"), life1("singleflight_followers"), rep)
		})
	}
}
