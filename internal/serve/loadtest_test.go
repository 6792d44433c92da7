package serve

import (
	"errors"

	"sync"
	"testing"
	"time"
)

// TestServeLoadSmoke is the serving load test CI runs under -race: a mixed
// stream of hot (repeated) and unique decks against a cache-enabled server,
// with the cache-hit accounting reconciled EXACTLY — every completed job is
// explained by a real solve, a singleflight collapse, or a cache hit, both
// from the in-process counters and from the /metrics exposition a scraper
// would see. It also seeds the numbers `make bench-serve` reports.
func TestServeLoadSmoke(t *testing.T) {
	s, ts := newTestServer(t, Options{
		QueueSize:     64,
		Workers:       4,
		CacheSize:     64,
		BatchMaxCells: 4096,
		BatchMaxJobs:  4,
		Sched:         SchedPredictive,
	})

	const (
		clients   = 8
		perClient = 40
		total     = clients * perClient
		hotDecks  = 4 // repeated decks: first occurrence solves, rest hit/collapse
	)
	hot := make([]string, hotDecks)
	for i := range hot {
		hot[i] = deck(24, i+1)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				u := c*perClient + i
				spec := JobSpec{Deck: hot[u%hotDecks]}
				if u%4 == 3 {
					// Every 4th submission is a unique deck: a distinct
					// (mesh, steps) pair so its content hash never repeats,
					// but still small enough to batch.
					spec = JobSpec{Deck: deck(16+u%40, 1+u/40)}
				}
				for {
					_, err := s.Submit(spec)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrQueueFull) {
						t.Errorf("client %d submit %d: %v", c, i, err)
						return
					}
					time.Sleep(2 * time.Millisecond) // backpressure: retry
				}
			}
		}(c)
	}
	wg.Wait()

	// Wait for the backlog to drain.
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) && int(s.met.completed.Value()) < total {
		time.Sleep(10 * time.Millisecond)
	}
	elapsed := time.Since(start)

	completed := s.met.completed.Value()
	solves := s.met.solves.Value()
	hits := s.met.cacheHits.Value()
	followers := s.met.followers.Value()
	if int(completed) != total {
		t.Fatalf("completed %v of %d accepted jobs (failed %v, expired %v)",
			completed, total, s.met.failed.Value(), s.met.expired.Value())
	}

	// The exact reconciliation: nothing double-counted, nothing unexplained.
	if completed != solves+followers+hits {
		t.Errorf("accounting does not reconcile: completed %v != solves %v + followers %v + hits %v",
			completed, solves, followers, hits)
	}
	// The request plane must have absorbed a meaningful share of the load
	// without invoking the solver: strictly fewer solves than jobs, and a
	// real hit population (the hot decks repeat ~60 times each).
	if solves >= completed {
		t.Errorf("solver ran %v times for %v jobs — cache/singleflight absorbed nothing", solves, completed)
	}
	if hits+followers == 0 {
		t.Error("no cache hits or collapses across a 3:1 hot:unique mix")
	}
	if sum := s.met.latency.Sum(); sum <= 0 {
		t.Errorf("summed latency = %v, want > 0", sum)
	}

	// A scraper must see the same story: pull /metrics and reconcile from
	// the exposition alone.
	_, body := getBody(t, ts.URL+"/metrics")
	exp := string(body)
	scraped := func(name string) float64 {
		t.Helper()
		v, ok := metricValue(t, exp, name)
		if !ok {
			t.Fatalf("metric %s missing from /metrics", name)
		}
		return v
	}
	sc, ss, sf, sh := scraped("teaserve_jobs_completed_total"), scraped("teaserve_solves_total"),
		scraped("teaserve_singleflight_followers_total"), scraped("teaserve_cache_hits_total")
	if sc != ss+sf+sh {
		t.Errorf("scraped accounting does not reconcile: %v != %v + %v + %v", sc, ss, sf, sh)
	}
	// teaserve_solve_seconds times solves that ran to done and nothing else:
	// cache hits and followers never solved.
	if sn := scraped("teaserve_solve_seconds_count"); sn != sc-sf-sh {
		t.Errorf("scraped solve_seconds_count %v != completed %v - followers %v - hits %v", sn, sc, sf, sh)
	}
	if sm := scraped("teaserve_cache_misses_total"); sm != solves {
		// Every miss became exactly one real solve (no failures in this run).
		t.Errorf("scraped misses %v != solves %v", sm, solves)
	}
	// The predictive scheduler made exactly one decision per real solve
	// (cache hits and followers never reach the version pick), and every
	// successful solve scored its admission-time prediction.
	if sd := scraped(`teaserve_sched_decisions_total{policy="predictive"}`); sd != solves {
		t.Errorf("scraped predictive decisions %v != solves %v", sd, solves)
	}
	if ec := scraped("teaserve_sched_prediction_error_ratio_count"); ec != solves {
		t.Errorf("prediction-error samples %v != solves %v", ec, solves)
	}

	t.Logf("load smoke: %d jobs in %v (%.0f jobs/s), %v solves, %v hits, %v followers, hit ratio %.2f",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds(),
		solves, hits, followers, (hits+followers)/completed)
}
