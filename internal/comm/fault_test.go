package comm

import (
	"errors"
	"math"
	"testing"
	"time"
)

// TestRunRecoversKilledRank: a rank killed mid-collective must surface as a
// structured RankError from Run — with the surviving ranks unblocked by the
// world abort, not deadlocked in the barrier — and the process must live.
func TestRunRecoversKilledRank(t *testing.T) {
	w := NewWorld(4)
	sched := NewSchedule(1)
	sched.Rules = []Rule{{Action: ActKill, Rank: 1, Op: 3, Tag: -1}}
	w.SetFaultInjector(sched)

	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(r *Rank) {
			for i := 0; i < 10; i++ {
				r.AllreduceSum(float64(r.ID()))
			}
		})
	}()
	select {
	case err := <-done:
		var re *RankError
		if !errors.As(err, &re) {
			t.Fatalf("Run error = %v, want a *RankError", err)
		}
		if re.Rank != 1 {
			t.Errorf("failed rank = %d, want 1", re.Rank)
		}
		if !errors.Is(err, ErrKilled) {
			t.Errorf("error %v does not wrap ErrKilled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run deadlocked after a rank kill (world abort did not propagate)")
	}
}

// TestInvalidRankSendBecomesRankError: the Send invalid-rank panic must be
// routed through the recovery path as a RankError naming rank and tag, not
// crash the process.
func TestInvalidRankSendBecomesRankError(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(99, 7, []float64{1})
		}
		// Rank 1 blocks in a receive; the abort must release it.
		if r.ID() == 1 {
			r.Recv(0, 42)
		}
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 0 {
		t.Fatalf("err = %v, want RankError on rank 0", err)
	}
	for _, want := range []string{"invalid rank 99", "tag 7"} {
		if !containsStr(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestRecvIntoOverflowBecomesRankError covers the second escape hatch the
// resilience layer closes: an overflowing RecvInto names source and tag in
// a recoverable error.
func TestRecvIntoOverflowBecomesRankError(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 9, make([]float64, 8))
		} else {
			var small [2]float64
			r.RecvInto(0, 9, small[:])
		}
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 1 {
		t.Fatalf("err = %v, want RankError on rank 1", err)
	}
	if !containsStr(err.Error(), "tag 9") || !containsStr(err.Error(), "overflows") {
		t.Errorf("error %q should name the tag and the overflow", err)
	}
}

// TestWatchdogTimeout: with a collective deadline installed, a rank waiting
// on a message that never comes fails with ErrCollectiveTimeout instead of
// hanging forever.
func TestWatchdogTimeout(t *testing.T) {
	w := NewWorld(2)
	w.SetCollectiveTimeout(30 * time.Millisecond)
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(r *Rank) {
			if r.ID() == 0 {
				r.Recv(1, 5) // rank 1 never sends
			}
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCollectiveTimeout) {
			t.Fatalf("err = %v, want ErrCollectiveTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog did not fire")
	}
}

// TestWatchdogBarrierTimeout: a rank that never reaches the barrier trips
// the deadline on its peers — measured from their entry, so the spin that
// precedes parking neither shortens nor stretches it beyond a small margin.
func TestWatchdogBarrierTimeout(t *testing.T) {
	const timeout, margin = 30 * time.Millisecond, 500 * time.Millisecond
	w := NewWorld(3)
	w.SetCollectiveTimeout(timeout)
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		done <- w.Run(func(r *Rank) {
			if r.ID() != 2 { // rank 2 skips the barrier entirely
				r.Barrier()
			}
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCollectiveTimeout) {
			t.Fatalf("err = %v, want ErrCollectiveTimeout", err)
		}
		if d := time.Since(start); d < timeout || d > timeout+margin {
			t.Errorf("barrier timed out after %v, want within [%v, %v]", d, timeout, timeout+margin)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("barrier watchdog did not fire")
	}
}

// TestAbortWakesSpinningWaiters: Abort reaches a receiver and a barrier
// waiter that entered their waits moments before — still spinning on the
// mailbox sequence or barrier generation, not yet parked on a condition
// variable — and both fail with ErrWorldAborted.
func TestAbortWakesSpinningWaiters(t *testing.T) {
	for _, c := range []struct {
		name string
		wait func(r *Rank)
	}{
		{"recv", func(r *Rank) { r.Recv(1, 5) }},
		{"barrier", func(r *Rank) { r.Barrier() }},
	} {
		w := NewWorld(2)
		rank := w.Ranks()[0]
		entered := make(chan struct{})
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			close(entered)
			c.wait(rank)
		}()
		<-entered
		w.Abort(errors.New("supervisor abort"))
		select {
		case pv := <-done:
			if err, ok := pv.(error); !ok || !errors.Is(err, ErrWorldAborted) {
				t.Errorf("%s: waiter ended with %v, want ErrWorldAborted", c.name, pv)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Abort did not wake the waiter", c.name)
		}
	}
}

// TestCorruptAndDrop: a corrupted payload arrives as NaNs; a dropped one
// never arrives (surfacing through the watchdog).
func TestCorruptAndDrop(t *testing.T) {
	w := NewWorld(2)
	sched := NewSchedule(1)
	sched.Rules = []Rule{{Action: ActCorrupt, Rank: 0, Op: 1, Tag: -1}}
	w.SetFaultInjector(sched)
	got := make(chan []float64, 1)
	if err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 3, []float64{1, 2, 3})
		} else {
			got <- r.Recv(0, 3)
		}
	}); err != nil {
		t.Fatal(err)
	}
	data := <-got
	for i, v := range data {
		if !math.IsNaN(v) {
			t.Errorf("corrupted payload[%d] = %v, want NaN", i, v)
		}
	}

	w2 := NewWorld(2)
	w2.SetCollectiveTimeout(30 * time.Millisecond)
	drop := NewSchedule(1)
	drop.Rules = []Rule{{Action: ActDrop, Rank: 0, Op: 1, Tag: -1}}
	w2.SetFaultInjector(drop)
	err := w2.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 3, []float64{1})
		} else {
			r.Recv(0, 3)
		}
	})
	if !errors.Is(err, ErrCollectiveTimeout) {
		t.Fatalf("dropped message should time out the receiver, got %v", err)
	}
}

// TestWorldResetAfterFailure: after a recovered failure and Reset, the same
// world runs a clean job to completion.
func TestWorldResetAfterFailure(t *testing.T) {
	w := NewWorld(3)
	sched := NewSchedule(1)
	sched.Rules = []Rule{{Action: ActKill, Rank: 2, Op: 1, Tag: -1}}
	w.SetFaultInjector(sched)
	if err := w.Run(func(r *Rank) { r.Barrier() }); err == nil {
		t.Fatal("expected the injected kill to fail the run")
	}
	w.Reset()
	w.SetFaultInjector(nil)
	got := make(chan float64, 3)
	if err := w.Run(func(r *Rank) { got <- r.AllreduceSum(1) }); err != nil {
		t.Fatalf("world not reusable after Reset: %v", err)
	}
	for i := 0; i < 3; i++ {
		if v := <-got; v != 3 {
			t.Errorf("allreduce after reset = %v, want 3", v)
		}
	}
}

// TestScheduleDeterminism: probabilistic rules draw from seeded per-rank
// streams, so two identical schedules fire at the same operation.
func TestScheduleDeterminism(t *testing.T) {
	fire := func() int {
		s := NewSchedule(42)
		s.Rules = []Rule{{Action: ActDrop, Rank: -1, Op: 0, Tag: -1, Prob: 0.2}}
		for op := 1; op <= 50; op++ {
			if s.OnSend(0, 1, 0, op) == ActDrop {
				return op
			}
		}
		return 0
	}
	a, b := fire(), fire()
	if a != b {
		t.Fatalf("schedules diverge: first drop at op %d and op %d", a, b)
	}
	if a == 0 {
		t.Error("probabilistic rule never fired in 50 ops at p=0.2")
	}
}

// TestParseSpec exercises the -fault-spec grammar.
func TestParseSpec(t *testing.T) {
	s, err := ParseSpec("kill:rank=1,op=40;corrupt:rank=0,op=25,tag=3;drop:prob=0.01,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rules) != 3 || s.Seed != 7 {
		t.Fatalf("got %d rules seed %d, want 3 rules seed 7", len(s.Rules), s.Seed)
	}
	if s.Rules[0].Action != ActKill || s.Rules[0].Rank != 1 || s.Rules[0].Op != 40 {
		t.Errorf("rule 0 = %+v", s.Rules[0])
	}
	if s.Rules[1].Tag != 3 {
		t.Errorf("rule 1 tag = %d, want 3", s.Rules[1].Tag)
	}
	for _, bad := range []string{"", "explode:rank=1,op=2", "kill:rank=1", "kill:op=x", "kill:prob=2"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted invalid spec", bad)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
