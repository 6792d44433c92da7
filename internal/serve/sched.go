package serve

import "sync"

// Priority tiers. Admission is weighted fair, not strict: a flood of
// high-priority work cannot starve low-priority jobs, it only gets a larger
// share of worker dispatches (weights 4:2:1).
const (
	tierHigh   = 0
	tierNormal = 1
	tierLow    = 2
	numTiers   = 3
)

var tierWeights = [numTiers]float64{4, 2, 1}

// tierOf maps a JobSpec priority string to its tier; validation happens in
// resolveSpec so this never sees an unknown name.
func tierOf(p string) int {
	switch p {
	case "high":
		return tierHigh
	case "low":
		return tierLow
	default: // "" and "normal"
		return tierNormal
	}
}

// sched is the admission queue that replaced the FIFO channel: three
// per-tier FIFOs drained by stride scheduling. Each tier accrues virtual
// time served/weight as workers dispatch from it; pop always takes the
// non-empty tier with the least virtual time, so over any window the tiers
// split worker dispatches 4:2:1 while order stays FIFO within a tier. The
// total backlog is bounded by cap, preserving the server's
// admission-control contract (push fails rather than queues unboundedly).
type sched struct {
	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	tiers  [numTiers][]*job
	size   int
	cap    int
	served [numTiers]float64
}

func newSched(capacity int) *sched {
	s := &sched{cap: capacity}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// push enqueues a job on its tier. It fails with ErrDraining after close
// and, when bounded, with ErrQueueFull at capacity; the caller translates
// both to typed rejections. Journal replay pushes unbounded: a job the
// server already acknowledged durably must be re-admitted, and bouncing it
// off the queue cap would silently lose accepted work, the exact failure
// the journal exists to prevent.
func (q *sched) push(j *job, bounded bool) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrDraining
	}
	if bounded && q.size >= q.cap {
		return ErrQueueFull
	}
	t := tierOf(j.spec.Priority)
	q.tiers[t] = append(q.tiers[t], j)
	q.size++
	q.cond.Signal()
	return nil
}

// nextTierLocked returns the non-empty tier with the least virtual time, or
// -1 when the queue is empty.
func (q *sched) nextTierLocked() int {
	best := -1
	var bestVT float64
	for t := 0; t < numTiers; t++ {
		if len(q.tiers[t]) == 0 {
			continue
		}
		vt := q.served[t] / tierWeights[t]
		if best < 0 || vt < bestVT {
			best, bestVT = t, vt
		}
	}
	return best
}

// popBatch blocks for work and returns the next dispatch: the fair-schedule
// head plus, when micro-batching is on (maxCells > 0) and the head is a
// small deck (cells <= maxCells), up to maxJobs-1 more small same-version
// jobs from the same tier. Same version is what lets the worker reuse one
// port (one par.Team spin-up) across the whole batch; same tier keeps the
// fairness accounting honest — the batch is one dispatch charged to one
// tier. Returns ok=false only when the queue is closed and fully drained.
func (q *sched) popBatch(maxJobs, maxCells int) ([]*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if t := q.nextTierLocked(); t >= 0 {
			head := q.tiers[t][0]
			q.tiers[t] = q.tiers[t][1:]
			batch := []*job{head}
			if maxCells > 0 && maxJobs > 1 && head.cells() <= maxCells {
				rest := q.tiers[t][:0]
				for _, j := range q.tiers[t] {
					if len(batch) < maxJobs && j.version == head.version && j.cells() <= maxCells {
						batch = append(batch, j)
					} else {
						rest = append(rest, j)
					}
				}
				// Clear the tail so dropped pointers don't pin jobs alive.
				tail := q.tiers[t][len(rest):]
				for i := range tail {
					tail[i] = nil
				}
				q.tiers[t] = rest
			}
			q.size -= len(batch)
			q.served[t] += float64(len(batch))
			return batch, true
		}
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
}

// close stops admission and wakes every worker; queued jobs still drain.
func (q *sched) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
