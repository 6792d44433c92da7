package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/serve"
)

// benchServeJSONFile is where -json drops the serving-benchmark record
// (repo root when teabench runs from there, as `make bench-serve` does).
const benchServeJSONFile = "BENCH_serve.json"

// serveBenchConfig records the knobs the benchmark ran with, so a stored
// BENCH_serve.json is self-describing.
type serveBenchConfig struct {
	Workers       int      `json:"workers"`
	QueueSize     int      `json:"queue_size"`
	CacheSize     int      `json:"cache_size"`
	BatchMaxCells int      `json:"batch_max_cells"`
	BatchMaxJobs  int      `json:"batch_max_jobs"`
	Versions      []string `json:"versions"`
	Jobs          int      `json:"jobs"`
	HotDecks      int      `json:"hot_decks"`
	HotFraction   float64  `json:"hot_fraction"`
}

// serveBenchResult is the BENCH_serve.json schema (documented in
// docs/OPERATIONS.md). Every counter is read back from the /metrics
// exposition — the numbers are what an operator's scraper would see.
type serveBenchResult struct {
	Config         serveBenchConfig `json:"config"`
	ElapsedSeconds float64          `json:"elapsed_seconds"`
	JobsPerSec     float64          `json:"jobs_per_sec"`
	Completed      float64          `json:"completed"`
	Solves         float64          `json:"solves"`
	CacheHits      float64          `json:"cache_hits"`
	Followers      float64          `json:"followers"`
	Batches        float64          `json:"batches"`
	BatchedJobs    float64          `json:"batched_jobs"`
	CacheHitRatio  float64          `json:"cache_hit_ratio"`
	LatencyP50     float64          `json:"latency_p50_seconds"`
	LatencyP99     float64          `json:"latency_p99_seconds"`
	SchedDecisions float64          `json:"sched_decisions"`
	PredErrP50     float64          `json:"pred_err_ratio_p50"`
	PredErrP99     float64          `json:"pred_err_ratio_p99"`
	Reconciles     bool             `json:"reconciles"` // completed == solves+followers+hits
}

// serveBench drives the job service the way the serving load test does — a
// mixed stream of hot (repeated) and unique decks — and reports sustained
// throughput, the cache-hit ratio, and latency quantiles, all derived from
// the /metrics exposition rather than private counters.
func serveBench(w io.Writer, jsonOut bool) {
	cfg := serveBenchConfig{
		Workers:       4,
		QueueSize:     64,
		CacheSize:     64,
		BatchMaxCells: 4096,
		BatchMaxJobs:  4,
		Versions:      []string{"manual-serial"},
		Jobs:          400,
		HotDecks:      4,
		HotFraction:   0.75,
	}
	s, err := serve.New(serve.Options{
		QueueSize:     cfg.QueueSize,
		Workers:       cfg.Workers,
		Versions:      cfg.Versions,
		CacheSize:     cfg.CacheSize,
		BatchMaxCells: cfg.BatchMaxCells,
		BatchMaxJobs:  cfg.BatchMaxJobs,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "teabench: %v\n", err)
		return
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bmDeck := func(n, steps int) string {
		c := config.BenchmarkN(n)
		c.EndStep = steps
		return c.Summary()
	}
	hot := make([]string, cfg.HotDecks)
	for i := range hot {
		hot[i] = bmDeck(24, i+1)
	}

	const clients = 8
	perClient := cfg.Jobs / clients
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				u := c*perClient + i
				deckText := hot[u%cfg.HotDecks]
				if u%4 == 3 { // the 1-HotFraction share: never-repeating decks
					deckText = bmDeck(16+u%40, 1+u/40)
				}
				for {
					_, err := s.Submit(serve.JobSpec{Deck: deckText})
					if err == nil {
						break
					}
					if !errors.Is(err, serve.ErrQueueFull) {
						fmt.Fprintf(os.Stderr, "teabench: submit: %v\n", err)
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(c)
	}
	wg.Wait()

	// A bounded scrape client: a wedged /metrics endpoint must fail the
	// experiment loudly, not hang the benchmark run.
	scrapeClient := &http.Client{Timeout: 30 * time.Second}
	scrapeOnce := func() string {
		resp, err := scrapeClient.Get(ts.URL + "/metrics")
		if err != nil {
			fmt.Fprintf(os.Stderr, "teabench: scrape: %v\n", err)
			return ""
		}
		defer resp.Body.Close()
		var sb strings.Builder
		io.Copy(&sb, resp.Body)
		return sb.String()
	}
	deadline := time.Now().Add(5 * time.Minute)
	exp := scrapeOnce()
	for seriesValue(exp, "teaserve_jobs_completed_total") < float64(cfg.Jobs) {
		if time.Now().After(deadline) {
			fmt.Fprintln(os.Stderr, "teabench: serve benchmark timed out waiting for drain")
			return
		}
		time.Sleep(20 * time.Millisecond)
		exp = scrapeOnce()
	}
	elapsed := time.Since(start)

	res := serveBenchResult{
		Config:         cfg,
		ElapsedSeconds: elapsed.Seconds(),
		JobsPerSec:     float64(cfg.Jobs) / elapsed.Seconds(),
		Completed:      seriesValue(exp, "teaserve_jobs_completed_total"),
		Solves:         seriesValue(exp, "teaserve_solves_total"),
		CacheHits:      seriesValue(exp, "teaserve_cache_hits_total"),
		Followers:      seriesValue(exp, "teaserve_singleflight_followers_total"),
		Batches:        seriesValue(exp, "teaserve_batches_total"),
		BatchedJobs:    seriesValue(exp, "teaserve_batch_jobs_total"),
		LatencyP50:     histogramQuantile(exp, "teaserve_solve_seconds", 0.50),
		LatencyP99:     histogramQuantile(exp, "teaserve_solve_seconds", 0.99),
		SchedDecisions: seriesValue(exp, `teaserve_sched_decisions_total{policy="predictive"}`),
		PredErrP50:     histogramQuantile(exp, "teaserve_sched_prediction_error_ratio", 0.50),
		PredErrP99:     histogramQuantile(exp, "teaserve_sched_prediction_error_ratio", 0.99),
	}
	if res.Completed > 0 {
		res.CacheHitRatio = (res.CacheHits + res.Followers) / res.Completed
	}
	res.Reconciles = res.Completed == res.Solves+res.Followers+res.CacheHits

	if jsonOut {
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "teabench: %v\n", err)
			return
		}
		buf = append(buf, '\n')
		w.Write(buf)
		if err := os.WriteFile(benchServeJSONFile, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "teabench: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "teabench: wrote %s\n", benchServeJSONFile)
		}
		return
	}
	fmt.Fprintf(w, "\n## Serving load — %d jobs (%d hot decks, %.0f%% hot), %d workers, cache %d\n\n",
		cfg.Jobs, cfg.HotDecks, cfg.HotFraction*100, cfg.Workers, cfg.CacheSize)
	fmt.Fprintf(w, "  throughput    %8.0f jobs/s  (%.2fs wall)\n", res.JobsPerSec, res.ElapsedSeconds)
	fmt.Fprintf(w, "  completed     %8.0f\n", res.Completed)
	fmt.Fprintf(w, "  solves        %8.0f  (solver invocations)\n", res.Solves)
	fmt.Fprintf(w, "  cache hits    %8.0f\n", res.CacheHits)
	fmt.Fprintf(w, "  collapsed     %8.0f  (singleflight followers)\n", res.Followers)
	fmt.Fprintf(w, "  micro-batches %8.0f  covering %.0f jobs\n", res.Batches, res.BatchedJobs)
	fmt.Fprintf(w, "  hit ratio     %8.2f\n", res.CacheHitRatio)
	fmt.Fprintf(w, "  latency p50   %8.4fs   p99 %8.4fs\n", res.LatencyP50, res.LatencyP99)
	fmt.Fprintf(w, "  sched         %8.0f decisions, prediction error p50 %.2fx p99 %.2fx\n",
		res.SchedDecisions, res.PredErrP50, res.PredErrP99)
	fmt.Fprintf(w, "  reconciles    %8v  (completed == solves + followers + hits)\n", res.Reconciles)
}

// seriesValue pulls one scalar series from a Prometheus text exposition.
func seriesValue(exposition, name string) float64 {
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

// histogramQuantile recovers a quantile from a histogram's cumulative
// bucket series the way promQL's histogram_quantile does: find the first
// bucket whose cumulative count covers the target rank and interpolate
// linearly inside it.
func histogramQuantile(exposition, name string, q float64) float64 {
	type bucket struct {
		le  float64
		cum float64
	}
	var buckets []bucket
	prefix := name + `_bucket{le="`
	for _, line := range strings.Split(exposition, "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		boundStr, countStr, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		var le float64
		if boundStr == "+Inf" {
			le = 0 // handled below: the overflow bucket clamps to the last finite bound
		} else {
			v, err := strconv.ParseFloat(boundStr, 64)
			if err != nil {
				continue
			}
			le = v
		}
		cum, err := strconv.ParseFloat(strings.TrimSpace(countStr), 64)
		if err != nil {
			continue
		}
		buckets = append(buckets, bucket{le: le, cum: cum})
	}
	if len(buckets) == 0 {
		return 0
	}
	total := buckets[len(buckets)-1].cum
	if total == 0 {
		return 0
	}
	rank := q * total
	prevBound, prevCum := 0.0, 0.0
	for i, b := range buckets {
		if i == len(buckets)-1 { // +Inf: no upper bound to interpolate toward
			return prevBound
		}
		if b.cum >= rank {
			if b.cum == prevCum {
				return b.le
			}
			return prevBound + (b.le-prevBound)*(rank-prevCum)/(b.cum-prevCum)
		}
		prevBound, prevCum = b.le, b.cum
	}
	return prevBound
}
