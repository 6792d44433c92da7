package comm

import (
	"testing"
	"time"
)

// TestSteadyStateAllocsWithDeadline pins the zero-allocation contract with a
// collective deadline installed, as `tealeaf -deadline` runs: a receive or
// barrier arms its deadline timer only when it parks, so a steady-state
// halo exchange and a scalar AllreduceSum between two ranks allocate
// nothing. Rank 0 runs on the test's goroutine and rank 1 on a
// helper goroutine, handed each step over a channel.
func TestSteadyStateAllocsWithDeadline(t *testing.T) {
	const stripLen = 512
	w := NewWorld(2)
	w.SetCollectiveTimeout(time.Minute)
	ranks := w.Ranks()
	steps, done := make(chan func(*Rank)), make(chan struct{})
	defer close(steps)
	go func() {
		for step := range steps {
			step(ranks[1])
			done <- struct{}{}
		}
	}()
	both := func(step func(*Rank)) func() {
		return func() {
			steps <- step
			step(ranks[0])
			<-done
		}
	}
	var pack, recv [2][stripLen]float64
	var sums [2]float64
	halo := both(func(r *Rank) {
		peer := 1 - r.ID()
		r.Send(peer, 1, pack[r.ID()][:])
		r.RecvInto(peer, 1, recv[r.ID()][:])
	})
	allreduce := both(func(r *Rank) {
		sums[r.ID()] = r.AllreduceSum(float64(r.ID()))
	})
	for i := 0; i < 4; i++ { // prime the payload free list
		halo()
	}
	if n := testing.AllocsPerRun(200, halo); n != 0 {
		t.Errorf("halo exchange with a deadline: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, allreduce); n != 0 {
		t.Errorf("AllreduceSum with a deadline: %v allocs/op, want 0", n)
	}
}

// The benchmarks below pin the zero-allocation contract of the runtime's
// steady state: once the payload free list is primed (a handful of warm-up
// exchanges), Send draws every copy buffer from the pool and RecvInto
// recycles consumed payloads, so a halo-exchange-shaped traffic pattern
// performs no heap allocation per operation. Run with -benchmem; the
// acceptance criterion is 0 allocs/op.

// BenchmarkHaloExchangeSteadyState models one field's halo swap between two
// neighbouring ranks: both sides post eager sends, then receive into
// reusable buffers — exactly the Send/RecvInto shape the MPI-style ports
// use in exchangeField.
func BenchmarkHaloExchangeSteadyState(b *testing.B) {
	const stripLen = 512 // a 256-row column strip at depth 2
	w := NewWorld(2)
	exchange := func(r *Rank, peer int, pack, recv []float64, iters int) {
		for i := 0; i < iters; i++ {
			r.Send(peer, 1, pack)
			r.RecvInto(peer, 1, recv)
		}
	}
	// Prime the free list outside the measured region.
	w.Run(func(r *Rank) {
		pack := make([]float64, stripLen)
		recv := make([]float64, stripLen)
		exchange(r, 1-r.ID(), pack, recv, 4)
	})
	b.ReportAllocs()
	b.ResetTimer()
	w.Run(func(r *Rank) {
		pack := make([]float64, stripLen)
		recv := make([]float64, stripLen)
		exchange(r, 1-r.ID(), pack, recv, b.N)
	})
}

// BenchmarkAllreduceSum pins the allocation-free scalar reduction every
// reducing kernel of a rank makes.
func BenchmarkAllreduceSum(b *testing.B) {
	const ranks = 4
	w := NewWorld(ranks)
	b.ReportAllocs()
	b.ResetTimer()
	w.Run(func(r *Rank) {
		for i := 0; i < b.N; i++ {
			r.AllreduceSum(float64(i))
		}
	})
}

// BenchmarkSocketHaloExchangeSteadyState is the halo-swap benchmark over the
// loopback socket transport: the wire path (framing into a per-link scratch
// buffer, pooled payload delivery, ack-driven buffer recycling) must stay
// allocation-pooled in steady state just like the in-process path — no
// per-operation payload or frame allocations. The guarded number is bytes
// per op: single-digit B/op means every 4KiB payload buffer came from the
// pool. (A residual couple of tiny allocs/op is goroutine-parking overhead:
// wire delivery is asynchronous, so receivers genuinely block, which the
// in-process benchmark's send/recv alternation never does.)
func BenchmarkSocketHaloExchangeSteadyState(b *testing.B) {
	const stripLen = 512
	w, err := NewSocketWorld(2, SocketOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	exchange := func(r *Rank, peer int, pack, recv []float64, iters int) {
		for i := 0; i < iters; i++ {
			r.Send(peer, 1, pack)
			r.RecvInto(peer, 1, recv)
		}
	}
	// Prime the free list, the link scratch buffers and the retain queues
	// outside the measured region.
	w.Run(func(r *Rank) {
		pack := make([]float64, stripLen)
		recv := make([]float64, stripLen)
		exchange(r, 1-r.ID(), pack, recv, 16)
	})
	b.ReportAllocs()
	b.ResetTimer()
	w.Run(func(r *Rank) {
		pack := make([]float64, stripLen)
		recv := make([]float64, stripLen)
		exchange(r, 1-r.ID(), pack, recv, b.N)
	})
}

// BenchmarkSocketAllreduce pins the distributed scalar reduction's steady
// state: gather-to-root and release frames all reuse pooled buffers.
func BenchmarkSocketAllreduce(b *testing.B) {
	w, err := NewSocketWorld(4, SocketOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	w.Run(func(r *Rank) {
		for i := 0; i < 16; i++ {
			r.AllreduceSum(float64(r.ID() + i))
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	w.Run(func(r *Rank) {
		for i := 0; i < b.N; i++ {
			r.AllreduceSum(float64(r.ID() + i))
		}
	})
}
