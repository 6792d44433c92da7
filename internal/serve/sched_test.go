package serve

import (
	"testing"
	"time"

	"github.com/warwick-hpsc/tealeaf-go/internal/config"
)

func schedJob(id, priority, version string, nx int) *job {
	return &job{
		id:      id,
		spec:    JobSpec{Priority: priority},
		cfg:     config.Config{NX: nx, NY: nx},
		version: version,
	}
}

// TestSchedWeightedFairness floods all three tiers and checks dispatches
// split by the 4:2:1 stride weights, with FIFO order inside each tier and no
// tier starved.
func TestSchedWeightedFairness(t *testing.T) {
	q := newSched(256)
	for i := 0; i < 28; i++ {
		for tier, p := range []string{"high", "normal", "low"} {
			if err := q.push(schedJob(string(rune('a'+tier))+itoa(i), p, "v", 8), true); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Pop the first 21 dispatches (3 full stride cycles of 4+2+1) with
	// batching off: exactly 12 high, 6 normal, 3 low, each tier in FIFO
	// order.
	counts := map[string]int{}
	lastIdx := map[byte]int{'a': -1, 'b': -1, 'c': -1}
	for i := 0; i < 21; i++ {
		batch, ok := q.popBatch(1, 0)
		if !ok || len(batch) != 1 {
			t.Fatalf("pop %d: batch %v ok %v", i, batch, ok)
		}
		j := batch[0]
		counts[j.spec.Priority]++
		tier, idx := j.id[0], atoi(j.id[1:])
		if idx <= lastIdx[tier] {
			t.Errorf("tier %c dispatched index %d after %d (not FIFO)", tier, idx, lastIdx[tier])
		}
		lastIdx[tier] = idx
	}
	if counts["high"] != 12 || counts["normal"] != 6 || counts["low"] != 3 {
		t.Errorf("dispatch mix over 21 pops = %v, want 12:6:3 (weights 4:2:1)", counts)
	}
}

// TestSchedNoStarvation: a continuous stream of high-priority arrivals must
// not starve an already-queued low job.
func TestSchedNoStarvation(t *testing.T) {
	q := newSched(1024)
	if err := q.push(schedJob("low0", "low", "v", 8), true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := q.push(schedJob("h"+itoa(i), "high", "v", 8), true); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		batch, _ := q.popBatch(1, 0)
		if batch[0].id == "low0" {
			return // dispatched within a few stride cycles despite the flood
		}
	}
	t.Error("low-priority job starved through 20 dispatches under high-priority flood")
}

// TestSchedMicroBatch checks coalescing rules: small same-tier same-version
// jobs ride along with the head, while big decks, other versions, and other
// tiers are left queued.
func TestSchedMicroBatch(t *testing.T) {
	q := newSched(64)
	small := func(id, p, v string) *job { return schedJob(id, p, v, 8) } // 64 cells
	push := func(j *job) {
		t.Helper()
		if err := q.push(j, true); err != nil {
			t.Fatal(err)
		}
	}
	push(small("n0", "normal", "v1"))
	push(small("n1", "normal", "v1"))
	push(schedJob("big", "normal", "v1", 100)) // 10000 cells: over threshold
	push(small("n2", "normal", "v2"))          // other version
	push(small("h0", "high", "v1"))            // other tier
	push(small("n3", "normal", "v1"))

	// First dispatch is charged to high (least virtual time among non-empty
	// tiers at equal served); the high tier has one small job, nothing to
	// coalesce with.
	batch, _ := q.popBatch(4, 1000)
	if len(batch) != 1 || batch[0].id != "h0" {
		t.Fatalf("first dispatch = %v, want the lone high job", ids(batch))
	}

	// Next normal dispatch coalesces n0+n1+n3 (skipping the big deck and
	// the other-version job) up to maxJobs.
	batch, _ = q.popBatch(4, 1000)
	if got := ids(batch); len(got) != 3 || got[0] != "n0" || got[1] != "n1" || got[2] != "n3" {
		t.Fatalf("batch = %v, want [n0 n1 n3]", got)
	}

	// The skipped jobs are still queued, in order.
	batch, _ = q.popBatch(4, 1000)
	if got := ids(batch); len(got) != 1 || got[0] != "big" {
		t.Fatalf("after batch = %v, want [big] (over cell threshold, dispatched alone)", got)
	}
	batch, _ = q.popBatch(4, 1000)
	if got := ids(batch); len(got) != 1 || got[0] != "n2" {
		t.Fatalf("last = %v, want [n2]", got)
	}
	if q.size != 0 {
		t.Errorf("queue depth %d after draining, want 0", q.size)
	}
}

// TestSchedBatchCap: a batch never exceeds maxJobs even with more eligible
// peers queued.
func TestSchedBatchCap(t *testing.T) {
	q := newSched(64)
	for i := 0; i < 6; i++ {
		if err := q.push(schedJob("j"+itoa(i), "", "v", 8), true); err != nil {
			t.Fatal(err)
		}
	}
	batch, _ := q.popBatch(4, 1000)
	if len(batch) != 4 {
		t.Fatalf("batch size %d, want maxJobs=4", len(batch))
	}
	batch, _ = q.popBatch(4, 1000)
	if len(batch) != 2 {
		t.Fatalf("second batch size %d, want the 2 leftovers", len(batch))
	}
}

// TestSchedCloseDrains: close wakes blocked workers, queued work still
// drains, and push is refused afterwards.
func TestSchedCloseDrains(t *testing.T) {
	q := newSched(8)
	if err := q.push(schedJob("j0", "", "v", 8), true); err != nil {
		t.Fatal(err)
	}
	q.close()
	if err := q.push(schedJob("j1", "", "v", 8), true); err != ErrDraining {
		t.Errorf("push after close = %v, want ErrDraining", err)
	}
	if batch, ok := q.popBatch(1, 0); !ok || batch[0].id != "j0" {
		t.Errorf("queued job lost on close: %v %v", ids(batch), ok)
	}
	donec := make(chan bool, 1)
	go func() {
		_, ok := q.popBatch(1, 0)
		donec <- ok
	}()
	select {
	case ok := <-donec:
		if ok {
			t.Error("popBatch returned ok on a closed empty queue")
		}
	case <-time.After(5 * time.Second):
		t.Error("popBatch blocked forever on a closed empty queue")
	}
}

// TestServerMicroBatching runs the full path: small decks queued behind a
// big one coalesce onto one worker dispatch (one shared port), the batch
// metrics account for it, and every job still completes correctly.
func TestServerMicroBatching(t *testing.T) {
	s, err := New(Options{QueueSize: 16, Workers: 1, BatchMaxCells: 2048, BatchMaxJobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Occupy the worker so the small jobs pile up in the queue.
	blocker, err := s.Submit(JobSpec{Deck: deck(64, 6), Version: "manual-serial"})
	if err != nil {
		t.Fatal(err)
	}
	var jobIDs []string
	for i := 0; i < 4; i++ {
		// Distinct decks (no cache in play), pinned to one version so the
		// scheduler may group them: 32x32 = 1024 cells, under the threshold.
		st, err := s.Submit(JobSpec{Deck: deck(32, i+1), Version: "manual-serial"})
		if err != nil {
			t.Fatal(err)
		}
		jobIDs = append(jobIDs, st.ID)
	}
	waitJob(t, s, blocker.ID)
	for _, id := range jobIDs {
		if st := waitJob(t, s, id); st.State != StateDone {
			t.Fatalf("batched job %s ended %s (%s)", id, st.State, st.Error)
		}
	}
	if got := s.met.batches.Value(); got != 1 {
		t.Errorf("batches_total = %v, want 1", got)
	}
	if got := s.met.batchJobs.Value(); got != 4 {
		t.Errorf("batch_jobs_total = %v, want 4", got)
	}
	if got := s.met.solves.Value(); got != 5 {
		t.Errorf("solves_total = %v, want 5 (batching shares ports, not results)", got)
	}
}

func ids(jobs []*job) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = j.id
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func atoi(s string) int {
	n := 0
	for _, c := range s {
		n = n*10 + int(c-'0')
	}
	return n
}
