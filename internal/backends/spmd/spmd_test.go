package spmd

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/warwick-hpsc/tealeaf-go/internal/comm"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
)

// fakeSet is a minimal rank-local set: Norm2R allreduces rank+1, CGCalcUR
// allreduces alpha, CalcResidual panics on the rank *fail names and
// otherwise meets its peers at a barrier, as HaloExchange does, and SetField
// does nothing. The embedded nil Kernels is never called.
type fakeSet struct {
	driver.Kernels
	rank   *comm.Rank
	fail   *atomic.Int32
	closed bool
}

func (f *fakeSet) Norm2R() float64 { return f.rank.AllreduceSum(float64(f.rank.ID() + 1)) }

func (f *fakeSet) CalcResidual() {
	if int(f.fail.Load()) == f.rank.ID() {
		panic("injected")
	}
	f.rank.Barrier()
}

func (f *fakeSet) CGCalcUR(alpha float64, _ bool) float64 { return f.rank.AllreduceSum(alpha) }

func (f *fakeSet) HaloExchange([]driver.FieldID, int) { f.rank.Barrier() }

func (f *fakeSet) SetField() {}

func (f *fakeSet) Close() { f.closed = true }

func newFake(t *testing.T, ranks int) (*Runner, []*fakeSet, *atomic.Int32) {
	t.Helper()
	fail := new(atomic.Int32)
	fail.Store(-1)
	var sets []*fakeSet
	r, err := New("fake", comm.NewWorld(ranks), func(rank *comm.Rank) (driver.Kernels, error) {
		f := &fakeSet{rank: rank, fail: fail}
		sets = append(sets, f)
		return f, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, sets, fail
}

// failure runs fn and returns what it panicked with.
func failure(fn func()) (pv any) {
	defer func() { pv = recover() }()
	fn()
	return nil
}

// TestPanicSurfacesAsRankError: a panic on rank 0 — the caller's own
// goroutine — and a panic on rank 1 both come back to the caller as a
// *comm.RankError naming the failing rank (a peer blocked at the barrier is
// woken by the abort latch, and its collateral ErrWorldAborted does not
// displace the primary failure), and the runner is reusable after the Reset
// that follows: the next call sees a clean world.
func TestPanicSurfacesAsRankError(t *testing.T) {
	for _, c := range []struct{ ranks, fail int }{{1, 0}, {2, 0}, {2, 1}, {3, 2}} {
		r, _, fail := newFake(t, c.ranks)
		fail.Store(int32(c.fail))
		pv := failure(r.CalcResidual)
		re, ok := pv.(*comm.RankError)
		if !ok || re.Rank != c.fail {
			t.Errorf("%d ranks, rank %d panics: caller got %#v, want a *comm.RankError for rank %d", c.ranks, c.fail, pv, c.fail)
		}
		if r.World().Err() != nil {
			t.Errorf("%d ranks: world still aborted after the failed call", c.ranks)
		}
		fail.Store(-1)
		want := float64(c.ranks * (c.ranks + 1) / 2)
		for i := 0; i < 3; i++ {
			if pv := failure(r.CalcResidual); pv != nil {
				t.Errorf("%d ranks: call after Reset panicked: %v", c.ranks, pv)
			}
			if got := r.Norm2R(); got != want {
				t.Errorf("%d ranks: Norm2R after Reset = %v, want %v", c.ranks, got, want)
			}
		}
		r.Close()
	}
}

// TestCloseAfterBurstDoesNotHang: bursts of calls, then Close, 10^5 calls in
// all — the shape of a port's life at the end of every run, and the
// spin/park handshake where par's one-in-40,000 Team.Close hang lived. Close
// must stop the rank goroutines and close every set.
func TestCloseAfterBurstDoesNotHang(t *testing.T) {
	const cycles, burst = 100, 1000
	for c := 0; c < cycles; c++ {
		done := make(chan []*fakeSet, 1)
		go func() {
			r, sets, _ := newFake(t, 2)
			for i := 0; i < burst; i++ {
				r.SetField()
			}
			r.Close()
			r.Close() // idempotent
			done <- sets
		}()
		select {
		case sets := <-done:
			for _, f := range sets {
				if !f.closed {
					t.Fatalf("cycle %d: rank %d's set was not closed", c, f.rank.ID())
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Close hung after %d clean cycles", c)
		}
	}
}

// tilingSet is a fakeSet that reports tiling statistics: rank+1 flushes.
type tilingSet struct{ *fakeSet }

func (t tilingSet) TilingSnapshot() driver.TilingSnapshot {
	return driver.TilingSnapshot{Tiling: true, Flushes: int64(t.rank.ID() + 1)}
}

// TestCapabilitiesFollowRankZero: the runner reports tiling statistics
// exactly when its sets implement them, summed over the ranks.
func TestCapabilitiesFollowRankZero(t *testing.T) {
	r, _, _ := newFake(t, 2)
	defer r.Close()
	if driver.AsTilingReporter(r) != nil {
		t.Error("runner over plain sets reports tiling statistics they lack")
	}
	tiled, err := New("tiled", comm.NewWorld(3), func(rank *comm.Rank) (driver.Kernels, error) {
		return tilingSet{&fakeSet{rank: rank}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tiled.Close()
	tr := driver.AsTilingReporter(tiled)
	if tr == nil {
		t.Fatal("runner over tiling sets hides their statistics")
	}
	if s := tr.TilingSnapshot(); !s.Tiling || s.Flushes != 1+2+3 {
		t.Errorf("snapshot = %+v, want Tiling and the ranks' 6 flushes", s)
	}
}

// TestCallsDoNotAllocate: a call reaches ranks 1..N-1 as a copy of a
// driver.Call in a slot the runner owns, not as a closure, so driving a
// 2-rank runner allocates nothing.
func TestCallsDoNotAllocate(t *testing.T) {
	r, _, _ := newFake(t, 2)
	defer r.Close()
	fields := []driver.FieldID{driver.FieldP}
	for _, c := range []struct {
		name string
		call func()
	}{
		{"Norm2R", func() { r.Norm2R() }},
		{"CGCalcUR", func() { r.CGCalcUR(0.5, true) }},
		{"HaloExchange", func() { r.HaloExchange(fields, 1) }},
	} {
		if n := testing.AllocsPerRun(200, c.call); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, n)
		}
	}
	if got := r.CGCalcUR(0.5, true); got != 1 {
		t.Errorf("CGCalcUR = %v, want rank 0's allreduced 1", got)
	}
}
