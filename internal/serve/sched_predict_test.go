package serve

import (
	"errors"
	"testing"
	"time"

	"github.com/warwick-hpsc/tealeaf-go/internal/config"
)

// TestPredictiveBeatsLeastLoaded pits the scheduler against an even split
// of job counts (what a least-loaded-by-count policy produces) on a
// synthetic skewed-cost pool: two versions whose fitted solve rates differ
// 10x. A count balance keeps feeding the slow version; the predictive policy
// balances predicted SECONDS, so the slow version gets work only once the
// fast one's backlog costs more. The makespan under the seeded (true)
// per-job costs must be strictly better.
func TestPredictiveBeatsLeastLoaded(t *testing.T) {
	pool := []string{"manual-serial", "manual-omp"}
	s, err := New(Options{QueueSize: 64, Workers: 1, Versions: pool})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	// Seed the fitted rates: manual-serial is 10x the cost of manual-omp for
	// the same deck.
	for i := 0; i < 5; i++ {
		s.pred.Observe("manual-serial", 24*24, 40, 1.0)
		s.pred.Observe("manual-omp", 24*24, 40, 0.1)
	}

	const jobs = 12
	predCounts := make(map[string]int)
	s.mu.Lock()
	for i := 0; i < jobs; i++ {
		j := &job{cfg: config.Config{NX: 24, NY: 24, EndStep: 10}}
		j.version = s.placeLocked(j)
		s.chargeLocked(j) // no releases: all jobs outstanding
		predCounts[j.version]++
	}
	s.mu.Unlock()
	llCounts := map[string]int{"manual-serial": jobs / 2, "manual-omp": jobs / 2}

	// True per-job cost on each version, from the seeded rates scaled to
	// this deck's modeled work (the same quantity the predictor prices).
	cost := map[string]float64{}
	for _, v := range pool {
		cells, iters := (&job{cfg: config.Config{NX: 24, NY: 24, EndStep: 10}}).workEstimate()
		cost[v] = s.pred.Predict(v, cells, iters).Seconds
	}
	makespan := func(counts map[string]int) float64 {
		worst := 0.0
		for v, n := range counts {
			if m := float64(n) * cost[v]; m > worst {
				worst = m
			}
		}
		return worst
	}

	mp, mll := makespan(predCounts), makespan(llCounts)
	t.Logf("assignment: predictive=%v (makespan %.2fs), even count split=%v (makespan %.2fs)",
		predCounts, mp, llCounts, mll)
	if mp >= mll {
		t.Fatalf("predictive makespan %.2fs not better than the even count split's %.2fs", mp, mll)
	}
	// An even count split puts half the jobs on each; predictive must shift
	// the bulk of the work onto the cheap version.
	if predCounts["manual-omp"] <= llCounts["manual-omp"] {
		t.Errorf("predictive put %d jobs on the fast version, the even split %d — no shift",
			predCounts["manual-omp"], llCounts["manual-omp"])
	}
}

// TestSchedDecisionCounters: admitted jobs are attributed to the policy
// that placed them, and a queue-full rejection leaves no trace in either
// the decision counters or the predicted-seconds accumulator.
func TestSchedDecisionCounters(t *testing.T) {
	s, err := New(Options{QueueSize: 1, Workers: 1, CacheSize: 0, Versions: []string{"manual-serial"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Fill the depth-1 queue faster than the single worker drains it.
	accepted := 0
	var rejections int
	for i := 0; i < 6; i++ {
		_, err := s.Submit(JobSpec{Deck: deck(24+i, 1)})
		if err == nil {
			accepted++
		} else if errors.Is(err, ErrQueueFull) {
			rejections++
		} else {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if rejections == 0 {
		t.Skip("queue drained too fast to observe a rejection")
	}
	if got := s.met.schedPredictive.Value(); got > float64(accepted) {
		t.Errorf("predictive decisions %v > accepted %d — rejections leaked into the counter", got, accepted)
	}
	// Drain, then the predicted-seconds accumulator must return to zero:
	// every accepted job refunds at settlement, every rejection was
	// refunded at admission.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && int(s.met.completed.Value()) < accepted {
		time.Sleep(5 * time.Millisecond)
	}
	s.mu.Lock()
	residual := s.ledger["manual-serial"]
	s.mu.Unlock()
	if residual != (verLoad{}) {
		t.Errorf("version ledger %+v after drain, want zero (rejection leak)", residual)
	}
}

// TestPredictiveReleaseRefundsSeconds: releasing a slot refunds exactly the
// predicted seconds its job was charged, the ledger reads exactly zero once
// nothing is outstanding whatever the refund order, and it never goes
// negative even if a refund exceeds what is left.
func TestPredictiveReleaseRefundsSeconds(t *testing.T) {
	s, err := New(Options{QueueSize: 4, Workers: 1, Versions: []string{"manual-serial"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a := &job{version: "manual-serial", cfg: config.Config{NX: 24, NY: 24, EndStep: 10}}
	b := &job{version: "manual-serial", cfg: config.Config{NX: 40, NY: 40, EndStep: 7}}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chargeLocked(a)
	if l := s.ledger["manual-serial"]; l.jobs != 1 || l.sec <= 0 || l.sec != a.predSec {
		t.Fatalf("charged %+v, job predSec %v", l, a.predSec)
	}
	s.chargeLocked(b)
	s.releaseLocked(a)
	s.releaseLocked(b)
	if l := s.ledger["manual-serial"]; l != (verLoad{}) {
		t.Fatalf("after release: %+v", l)
	}
	// An over-refund stays clamped at zero while other work is outstanding.
	s.chargeLocked(a)
	s.chargeLocked(b)
	a.predSec += 1e9
	s.releaseLocked(a)
	if l := s.ledger["manual-serial"]; l.jobs != 1 || l.sec != 0 {
		t.Fatalf("over-refund: %+v, want one job and zero seconds", l)
	}
	s.releaseLocked(b)
}

// TestSchedOptionValidation: the one policy is accepted by name and as the
// zero value; anything else, the removed leastloaded included, is rejected.
func TestSchedOptionValidation(t *testing.T) {
	for _, bad := range []string{"fifo", "leastloaded"} {
		if _, err := New(Options{Sched: bad}); err == nil {
			t.Fatalf("sched policy %q accepted", bad)
		}
	}
	for _, ok := range []string{"", SchedPredictive} {
		s, err := New(Options{Sched: ok})
		if err != nil {
			t.Fatalf("sched policy %q: %v", ok, err)
		}
		s.Close()
	}
}
