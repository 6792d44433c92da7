package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	tealeaf "github.com/warwick-hpsc/tealeaf-go"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/registry"
	"github.com/warwick-hpsc/tealeaf-go/internal/serve"
)

// serverOptions are the teaserve defaults the issue fixes, plus what the
// workload states.
func serverOptions(w workload, stateDir string) serve.Options {
	o := serve.Options{
		Workers:       runtime.NumCPU(),
		QueueSize:     64,
		CacheSize:     256,
		BatchMaxCells: 16384,
		BatchMaxJobs:  4,
		Sched:         serve.SchedPredictive,
		Versions:      servePool,
		Params:        registry.Params{Threads: 1, Ranks: 1},
		RetainJobs:    w.serve.retain,
	}
	if w.serve.durable {
		o.StateDir = stateDir
		o.Recovery = driver.RecoveryPolicy{CheckpointEvery: 1}
	}
	return o
}

// serveBench drives one teaserve instance over HTTP with nproc closed-loop
// clients: each sends its next job only after the previous one is done.
type serveBench struct {
	w        workload
	g        *deckGen
	stateDir string
	spans    *spanLog // nil when untraced

	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	base   string // exposition scraped right after start

	hot     []config.Config
	hotRefs []tealeaf.Totals

	mu                sync.Mutex // guards everything below and g
	own               int        // jobs drawn from the workload's own traffic
	attempted, failed int
	problems          []string
}

func (b *serveBench) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed++
	if len(b.problems) < 8 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// prepare generates the hot decks and their direct references.
func (b *serveBench) prepare() error {
	if b.w.serve.hot == nil {
		return nil
	}
	b.hot = b.w.serve.hot(b.g)
	for _, c := range b.hot {
		tot, _, err := directRun("manual-serial", c)
		if err != nil {
			return fmt.Errorf("hot deck reference: %w", err)
		}
		b.hotRefs = append(b.hotRefs, tot)
	}
	return nil
}

// start opens a server (replaying the journal when the state directory
// already holds one) and returns how long serve.New took. Replay restores
// finished jobs into the job counters but not into the solve counters, so
// the accounting identities are held to what the server did after start.
func (b *serveBench) start() (time.Duration, error) {
	t0 := time.Now()
	srv, err := serve.New(serverOptions(b.w, b.stateDir))
	if err != nil {
		return 0, err
	}
	dt := time.Since(t0)
	b.srv = srv
	b.ts = httptest.NewServer(srv.Handler())
	b.client = b.ts.Client()
	b.base, _, err = b.scrape()
	return dt, err
}

func (b *serveBench) stop() {
	b.ts.Close()
	b.srv.Close()
}

func (b *serveBench) nextOwn() jobReq {
	b.mu.Lock()
	defer b.mu.Unlock()
	j := b.w.serve.next(b.g, b.own, b.hot)
	b.own++
	return j
}

func (b *serveBench) nextFiller() jobReq {
	b.mu.Lock()
	defer b.mu.Unlock()
	return fillerJob(b.g)
}

// region is one stretch of traffic.
type region struct {
	jobs   int
	wall   float64   // seconds, first submit to last done
	ackMs  []float64 // POST -> 202
	doneMs []float64 // POST -> done event
}

func (r region) jobsPerS() float64 { return float64(r.jobs) / r.wall }

// pieceEvery is how often each client times a yardstick piece between two of
// its jobs. The other client's job goes on meanwhile, on the other core.
const pieceEvery = 200 * time.Millisecond

// run sends jobs from gen until n have been sent (n > 0) or d has passed
// (n == 0), and waits for each to finish. The clients' yardstick pieces go
// to g.
func (b *serveBench) run(n int, d time.Duration, gen func() jobReq, g *gauge) region {
	clients := runtime.NumCPU()
	start := time.Now()
	var (
		mu   sync.Mutex
		sent int
		reg  region
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lastPiece := time.Now().Add(-pieceEvery * time.Duration(c+1) / time.Duration(clients))
			for {
				if g != nil && time.Since(lastPiece) >= pieceEvery {
					p := yardPiece()
					lastPiece = time.Now()
					mu.Lock()
					g.add(p)
					mu.Unlock()
				}
				mu.Lock()
				stop := sent >= n && n > 0 || n == 0 && time.Since(start) >= d
				if !stop {
					sent++
				}
				mu.Unlock()
				if stop {
					return
				}
				ack, done, ok := b.one(c, gen())
				if !ok {
					continue
				}
				mu.Lock()
				reg.jobs++
				reg.ackMs = append(reg.ackMs, ack)
				reg.doneMs = append(reg.doneMs, done)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	reg.wall = time.Since(start).Seconds()
	return reg
}

// one submits a job and long-polls its event stream until the done event.
func (b *serveBench) one(client int, req jobReq) (ackMs, doneMs float64, ok bool) {
	b.mu.Lock()
	b.attempted++
	b.mu.Unlock()
	body, err := json.Marshal(req.spec)
	if err != nil {
		b.fail("encode spec: %v", err)
		return 0, 0, false
	}
	t0 := time.Now()
	resp, err := b.client.Post(b.ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		b.fail("submit: %v", err)
		return 0, 0, false
	}
	var st serve.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	tAck := time.Now()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		b.fail("submit: status %d, %v", resp.StatusCode, err)
		return 0, 0, false
	}

	var final *serve.Event
	since := 0
	for final == nil {
		resp, err := b.client.Get(fmt.Sprintf("%s/v1/jobs/%s/events?poll=1&since=%d&wait=30s", b.ts.URL, st.ID, since))
		if err != nil {
			b.fail("%s events: %v", st.ID, err)
			return 0, 0, false
		}
		var batch struct {
			Events []serve.Event `json:"events"`
			Done   bool          `json:"done"`
		}
		err = json.NewDecoder(resp.Body).Decode(&batch)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			b.fail("%s events: status %d, %v", st.ID, resp.StatusCode, err)
			return 0, 0, false
		}
		for i := range batch.Events {
			since = batch.Events[i].Seq
			if batch.Events[i].Type == "done" {
				final = &batch.Events[i]
			}
		}
		if batch.Done && final == nil {
			b.fail("%s: stream ended without a done event", st.ID)
			return 0, 0, false
		}
	}
	tDone := time.Now()
	b.spans.job(client, st.ID, t0, tAck, tDone)

	if final.State != serve.StateDone || final.Result == nil {
		b.fail("%s ended %s: %s", st.ID, final.State, final.Error)
		return 0, 0, false
	}
	if req.hot >= 0 {
		r := final.Result
		got := tealeaf.Totals{Volume: r.Volume, Mass: r.Mass, InternalEnergy: r.InternalEnergy, Temperature: r.Temperature}
		if diff := tealeaf.CompareTotals(got, b.hotRefs[req.hot]); !(diff <= qaTolerance) {
			b.fail("%s: hot deck %d differs from its direct reference by %.3g", st.ID, req.hot, diff)
			return 0, 0, false
		}
	}
	return tAck.Sub(t0).Seconds() * 1e3, tDone.Sub(t0).Seconds() * 1e3, true
}

// scrape fetches /metrics and returns the exposition and the time it took.
func (b *serveBench) scrape() (string, time.Duration, error) {
	t0 := time.Now()
	resp, err := b.client.Get(b.ts.URL + "/metrics")
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("scrape: status %d", resp.StatusCode)
	}
	return string(text), time.Since(t0), nil
}

// since is how far a counter of the exposition has moved since start.
func (b *serveBench) since(exp, name string) float64 {
	return seriesValue(exp, name) - seriesValue(b.base, name)
}

// checkIdentities holds the scraped exposition to the server's two
// accounting identities; a miss is a failed operation.
func (b *serveBench) checkIdentities(exp string) {
	v := func(name string) float64 { return b.since(exp, "teaserve_"+name) }
	completed, submitted := v("jobs_completed_total"), v("jobs_submitted_total")
	if rhs := v("solves_total") + v("singleflight_followers_total") + v("cache_hits_total"); completed != rhs {
		b.fail("identity: completed %.0f != solves+followers+hits %.0f", completed, rhs)
	}
	if rhs := completed + v("jobs_expired_total") + v("jobs_failed_total"); submitted != rhs {
		b.fail("identity: submitted %.0f != completed+expired+failed %.0f", submitted, rhs)
	}
}

// seriesValue pulls one scalar series from a Prometheus text exposition.
func seriesValue(exposition, name string) float64 {
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
				return v
			}
		}
	}
	return 0
}

// histogramQuantile recovers a quantile from a histogram's cumulative
// bucket series by linear interpolation inside the covering bucket.
func histogramQuantile(exposition, name string, q float64) float64 {
	var bounds, cums []float64
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
		cum, err := strconv.ParseFloat(strings.TrimSpace(countStr), 64)
		if err != nil {
			continue
		}
		le, err := strconv.ParseFloat(boundStr, 64) // "+Inf" parses
		if err != nil {
			continue
		}
		bounds, cums = append(bounds, le), append(cums, cum)
	}
	if len(cums) == 0 || cums[len(cums)-1] == 0 {
		return 0
	}
	rank := q * cums[len(cums)-1]
	prevBound, prevCum := 0.0, 0.0
	for i, cum := range cums {
		if i == len(cums)-1 { // +Inf: clamp to the last finite bound
			return prevBound
		}
		if cum >= rank {
			if cum == prevCum {
				return bounds[i]
			}
			return prevBound + (bounds[i]-prevBound)*(rank-prevCum)/(cum-prevCum)
		}
		prevBound, prevCum = bounds[i], cum
	}
	return prevBound
}

// warmUp starts the server and sends the untimed traffic: filler jobs, then
// the workload's own. It returns the stretch before the store reached
// RetainJobs (the cold regime) and, for a durable workload, how long the
// restart over the journal took.
func (b *serveBench) warmUp(g *gauge) (cold region, replay time.Duration, err error) {
	if b.w.serve.durable {
		if err := os.RemoveAll(b.stateDir); err != nil {
			return region{}, 0, err
		}
	}
	if _, err := b.start(); err != nil {
		return region{}, 0, err
	}
	s := b.w.serve
	var mu sync.Mutex
	sent := 0
	gen := func() jobReq {
		mu.Lock()
		i := sent
		sent++
		mu.Unlock()
		if i < s.filler {
			return b.nextFiller()
		}
		return b.nextOwn()
	}
	cold = b.run(s.retain, 0, gen, g)
	b.run(s.filler+s.warm-s.retain, 0, gen, g)
	if !s.durable {
		return cold, 0, nil
	}
	// A durable server is measured after a restart over its own journal.
	if err := b.finish(); err != nil {
		return region{}, 0, err
	}
	replay, err = b.start()
	return cold, replay, err
}

// finish checks the accounting identities on a last scrape and stops the
// server.
func (b *serveBench) finish() error {
	exp, _, err := b.scrape()
	if err != nil {
		b.stop()
		return err
	}
	b.checkIdentities(exp)
	b.stop()
	return nil
}
