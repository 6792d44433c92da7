package serve

import (
	"strconv"
	"testing"
	"time"
)

// TestJobStoreBoundedRetention is the regression test for the unbounded job
// store: thousands of jobs through a server with RetainJobs=100 must leave
// the store bounded, with the evicted counter reconciling exactly against
// what remains. Cache hits complete at submit time, so the loop sustains
// thousands of jobs in well under a second.
func TestJobStoreBoundedRetention(t *testing.T) {
	const retain = 100
	s, err := New(Options{QueueSize: 8, Workers: 1, CacheSize: 8, RetainJobs: retain})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	st, err := s.Submit(JobSpec{Deck: deck(32, 1)})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, st.ID)

	const total = 2500
	for i := 1; i < total; i++ {
		if _, err := s.Submit(JobSpec{Deck: deck(32, 1)}); err != nil {
			t.Fatalf("submission %d rejected: %v", i, err)
		}
	}

	jobs := s.Jobs()
	// Everything after the populating solve was a synchronous cache hit, so
	// the store holds exactly the retention bound.
	if len(jobs) != retain {
		t.Errorf("store holds %d jobs after %d submissions, want %d", len(jobs), total, retain)
	}
	evicted := s.met.jobsEvicted.Value()
	if evicted != total-retain {
		t.Errorf("jobs_evicted_total = %v, want %d", evicted, total-retain)
	}
	if got := s.met.submitted.Value(); int(got) != total {
		t.Errorf("submitted = %v, want %d", got, total)
	}
	// Retained jobs are the newest, still in submission order.
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Submitted.Before(jobs[i-1].Submitted) {
			t.Errorf("retained jobs out of submission order at %d", i)
		}
	}
	// Evicted jobs are gone from point lookups too.
	if _, ok := s.Job(st.ID); ok {
		t.Error("oldest job still retrievable after eviction")
	}
}

// TestRetentionNeverEvictsUnfinished: the bound only applies to finished
// jobs — queued and running work must survive even when the store is over
// the count limit.
func TestRetentionNeverEvictsUnfinished(t *testing.T) {
	s, err := New(Options{QueueSize: 16, Workers: 1, CacheSize: 8, RetainJobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// A slow job occupies the worker; more queue behind it. All of them are
	// unfinished and must be immune to eviction.
	// The first job is big enough (a tenth of a second or more) that a
	// loaded machine descheduling this goroutine between submissions cannot
	// let it finish before the check.
	var pending []string
	for i := 0; i < 5; i++ {
		d := deck(64, i+4)
		if i == 0 {
			d = deck(192, 20)
		}
		st, err := s.Submit(JobSpec{Deck: d})
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, st.ID)
	}
	if len(s.Jobs()) != 5 {
		t.Fatalf("unfinished jobs evicted: %d of 5 left", len(s.Jobs()))
	}
	for _, id := range pending {
		if st := waitJob(t, s, id); st.State != StateDone {
			t.Fatalf("job %s ended %s", id, st.State)
		}
	}
	// Now that they are finished, listing trims down to the bound.
	if got := len(s.Jobs()); got != 2 {
		t.Errorf("store holds %d finished jobs, want RetainJobs=2", got)
	}
}

// TestRetentionByAge: RetainAge expires finished jobs even when the count
// bound alone would keep them.
func TestRetentionByAge(t *testing.T) {
	s, err := New(Options{QueueSize: 8, Workers: 1, RetainJobs: 1000, RetainAge: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	st, err := s.Submit(JobSpec{Deck: deck(32, 1)})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, st.ID)
	if len(s.Jobs()) != 1 {
		t.Fatal("fresh finished job missing")
	}
	time.Sleep(80 * time.Millisecond)
	if got := len(s.Jobs()); got != 0 {
		t.Errorf("store holds %d jobs past RetainAge, want 0", got)
	}
	if got := s.met.jobsEvicted.Value(); got != 1 {
		t.Errorf("jobs_evicted_total = %v, want 1", got)
	}
}

// BenchmarkSubmitFullStore times a cache-hit Submit against a store already
// at RetainJobs, so every admission also evicts a job. Retention costs
// O(evicted), so the time per Submit does not grow with the bound.
func BenchmarkSubmitFullStore(b *testing.B) {
	for _, retain := range []int{64, 4096} {
		b.Run("retain="+strconv.Itoa(retain), func(b *testing.B) {
			s, err := New(Options{QueueSize: 4, Workers: 1, CacheSize: 8, RetainJobs: retain})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			spec := JobSpec{Deck: deck(16, 1)}
			st, err := s.Submit(spec)
			if err != nil {
				b.Fatal(err)
			}
			for cur := st; !cur.State.finished(); cur, _ = s.Job(st.ID) {
				time.Sleep(time.Millisecond)
			}
			for i := 0; i < retain; i++ {
				if _, err := s.Submit(spec); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Submit(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
