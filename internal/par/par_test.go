package par

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestStaticRangePartitions(t *testing.T) {
	// StaticRange must partition [lo, hi) exactly: contiguous, disjoint,
	// covering, with sizes differing by at most one (quick-check).
	f := func(loI int8, nU uint8, thU uint8) bool {
		lo := int(loI)
		n := int(nU)
		nth := 1 + int(thU)%16
		hi := lo + n
		covered := 0
		prevEnd := lo
		minSz, maxSz := math.MaxInt, 0
		for th := 0; th < nth; th++ {
			from, to := StaticRange(lo, hi, th, nth)
			if from != prevEnd {
				return false // gap or overlap
			}
			if to < from {
				return false
			}
			sz := to - from
			covered += sz
			prevEnd = to
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
		}
		if prevEnd != hi || covered != n {
			return false
		}
		return n == 0 || maxSz-minSz <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	team := NewTeam(5)
	defer team.Close()
	const n = 1003
	var hits [n]atomic.Int32
	team.For(0, n, func(from, to int) {
		for i := from; i < to; i++ {
			hits[i].Add(1)
		}
	})
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("index %d executed %d times", i, got)
		}
	}
}

func TestForDynamicCoversEveryIndexOnce(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	const n = 777
	var hits [n]atomic.Int32
	team.ForDynamic(0, n, 13, func(from, to int) {
		for i := from; i < to; i++ {
			hits[i].Add(1)
		}
	})
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("index %d executed %d times", i, got)
		}
	}
}

func TestForEmptyAndNegativeRanges(t *testing.T) {
	team := NewTeam(3)
	defer team.Close()
	called := false
	team.For(5, 5, func(int, int) { called = true })
	team.For(7, 3, func(int, int) { called = true })
	team.ForDynamic(2, 2, 4, func(int, int) { called = true })
	team.ForGuided(8, 8, 2, func(int, int) { called = true })
	if called {
		t.Error("body invoked on empty range")
	}
	if got := team.ReduceSum(9, 9, func(int, int) float64 { return 1 }); got != 0 {
		t.Errorf("ReduceSum on empty range = %g", got)
	}
}

func TestForGuidedCoversEveryIndexOnce(t *testing.T) {
	for _, nth := range []int{1, 3, 6} {
		team := NewTeam(nth)
		const n = 911
		var hits [n]atomic.Int32
		team.ForGuided(0, n, 4, func(from, to int) {
			for i := from; i < to; i++ {
				hits[i].Add(1)
			}
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("nthreads=%d: index %d executed %d times", nth, i, got)
			}
		}
		team.Close()
	}
}

func TestUseAfterClosePanics(t *testing.T) {
	for name, use := range map[string]func(*Team){
		"For":        func(tm *Team) { tm.For(0, 10, func(int, int) {}) },
		"ForDynamic": func(tm *Team) { tm.ForDynamic(0, 10, 2, func(int, int) {}) },
		"ForGuided":  func(tm *Team) { tm.ForGuided(0, 10, 2, func(int, int) {}) },
		"ReduceSum":  func(tm *Team) { tm.ReduceSum(0, 10, func(int, int) float64 { return 0 }) },
	} {
		t.Run(name, func(t *testing.T) {
			team := NewTeam(3)
			team.For(0, 4, func(int, int) {}) // healthy before Close
			team.Close()
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("no panic on use after Close")
				}
				if s, ok := r.(string); !ok || s != "par: Team used after Close" {
					t.Fatalf("panic = %v, want the documented message", r)
				}
			}()
			use(team)
		})
	}
}

func TestStressTinyLoopsConcurrentTeams(t *testing.T) {
	// Many tiny fork-joins on several teams at once: exercises the
	// spin-then-park transitions under oversubscription. Any lost wakeup
	// deadlocks the test; any dropped chunk breaks the sums.
	const (
		teams = 4
		iters = 10000
		n     = 64
	)
	var wg sync.WaitGroup
	for tm := 0; tm < teams; tm++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			team := NewTeam(1 + id%4)
			defer team.Close()
			want := float64(n)
			for it := 0; it < iters; it++ {
				got := team.ReduceSum(0, n, func(from, to int) float64 {
					return float64(to - from)
				})
				if got != want {
					t.Errorf("team %d iter %d: ReduceSum = %g, want %g", id, it, got, want)
					return
				}
			}
		}(tm)
	}
	wg.Wait()
}

func TestReduceSumDeterministicAcrossSchedulerNoise(t *testing.T) {
	// For a fixed team size the combine order is thread order, so the result
	// must be bit-identical no matter how the scheduler interleaves workers —
	// even while other teams churn in the background.
	team := NewTeam(5)
	defer team.Close()
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = math.Cos(float64(3 * i))
	}
	body := func(from, to int) float64 {
		var s float64
		for i := from; i < to; i++ {
			s += vals[i]
		}
		return s
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		noise := NewTeam(3)
		defer noise.Close()
		for {
			select {
			case <-stop:
				return
			default:
				noise.For(0, 128, func(int, int) {})
			}
		}
	}()
	first := team.ReduceSum(0, len(vals), body)
	for r := 0; r < 200; r++ {
		if got := team.ReduceSum(0, len(vals), body); got != first {
			t.Fatalf("run %d: %v != %v", r, got, first)
		}
	}
	close(stop)
	wg.Wait()
}

func TestReduceSumCorrectAndDeterministic(t *testing.T) {
	team := NewTeam(7)
	defer team.Close()
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = math.Sin(float64(i)) // non-trivial magnitudes
	}
	body := func(from, to int) float64 {
		var s float64
		for i := from; i < to; i++ {
			s += vals[i]
		}
		return s
	}
	first := team.ReduceSum(0, len(vals), body)
	for r := 0; r < 20; r++ {
		if got := team.ReduceSum(0, len(vals), body); got != first {
			t.Fatalf("run %d: %v != %v — reduction is not deterministic", r, got, first)
		}
	}
	// And the value itself must match a serial sum to rounding.
	var serialSum float64
	for _, v := range vals {
		serialSum += v
	}
	if math.Abs(first-serialSum) > 1e-9 {
		t.Errorf("parallel %v vs serial %v", first, serialSum)
	}
}

func TestDefaultTeamSize(t *testing.T) {
	team := NewTeam(0)
	defer team.Close()
	// A static loop runs one share per thread: the default team has one
	// thread per GOMAXPROCS.
	var shares atomic.Int32
	team.For(0, 1000, func(int, int) { shares.Add(1) })
	if got, want := int(shares.Load()), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("default team ran %d shares, want GOMAXPROCS = %d", got, want)
	}
}

func TestCloseIdempotent(t *testing.T) {
	team := NewTeam(2)
	team.Close()
	team.Close() // must not panic or deadlock
}

func TestSingleThreadFastPath(t *testing.T) {
	team := NewTeam(1)
	defer team.Close()
	sum := team.ReduceSum(0, 10, func(from, to int) float64 { return float64(to - from) })
	if sum != 10 {
		t.Errorf("single-thread ReduceSum = %g", sum)
	}
}

// TestCloseAfterBurstDoesNotHang: a worker that returns late from an earlier
// epoch re-reads the loop op without waiting for the next epoch bump. Close
// used to publish the exit op before arming the join, so such a worker could
// count its exit against an unarmed join and leave Close waiting forever
// (about one Close in 40,000 on two cores). Short bursts followed by Close
// are what a port does at the end of every run.
func TestCloseAfterBurstDoesNotHang(t *testing.T) {
	stop := time.Now().Add(time.Second)
	for cycles := 0; time.Now().Before(stop); cycles++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			team := NewTeam(3)
			for k := 0; k < 3; k++ {
				team.For(0, 8, func(from, to int) {})
			}
			team.Close()
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("Close hung after %d clean cycles", cycles)
		}
	}
}
