package comm

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestPointToPoint(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 7, []float64{1, 2, 3})
			got := r.Recv(1, 8)
			if len(got) != 1 || got[0] != 42 {
				t.Errorf("rank 0 received %v", got)
			}
		} else {
			got := r.Recv(0, 7)
			if len(got) != 3 || got[2] != 3 {
				t.Errorf("rank 1 received %v", got)
			}
			r.Send(0, 8, []float64{42})
		}
	})
}

func TestSendCopiesPayload(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			buf := []float64{1, 2, 3}
			r.Send(1, 0, buf)
			buf[0] = 99 // mutate after send: receiver must see the original
			r.Barrier()
		} else {
			r.Barrier()
			got := r.Recv(0, 0)
			if got[0] != 1 {
				t.Errorf("eager send did not copy: got %v", got)
			}
		}
	})
}

func TestTagMatchingAndOrder(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 5, []float64{50})
			r.Send(1, 6, []float64{60})
			r.Send(1, 5, []float64{51})
		} else {
			// Receive out of tag order; same-tag messages keep send order.
			if got := r.Recv(0, 6); got[0] != 60 {
				t.Errorf("tag 6 got %v", got)
			}
			if got := r.Recv(0, 5); got[0] != 50 {
				t.Errorf("tag 5 first got %v", got)
			}
			if got := r.Recv(0, 5); got[0] != 51 {
				t.Errorf("tag 5 second got %v", got)
			}
		}
	})
}

func TestRecvIntoChecksOverflow(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, []float64{1, 2, 3, 4})
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic on overflowing RecvInto")
			}
		}()
		var small [2]float64
		r.RecvInto(0, 0, small[:])
	})
}

func TestBarrierReusable(t *testing.T) {
	const ranks = 5
	w := NewWorld(ranks)
	var counter, violations int64
	var mu sync.Mutex
	w.Run(func(r *Rank) {
		for round := 0; round < 50; round++ {
			mu.Lock()
			counter++
			mu.Unlock()
			r.Barrier()
			mu.Lock()
			if counter != int64(ranks*(round+1)) {
				violations++
			}
			mu.Unlock()
			r.Barrier()
		}
	})
	if violations != 0 {
		t.Errorf("%d barrier violations", violations)
	}
}

func TestAllreduceOps(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(r *Rank) {
		x := float64(r.ID() + 1) // 1..4
		if got := r.Allreduce(x, OpSum); got != 10 {
			t.Errorf("sum = %g", got)
		}
		if got := r.Allreduce(x, OpMin); got != 1 {
			t.Errorf("min = %g", got)
		}
		if got := r.Allreduce(x, OpMax); got != 4 {
			t.Errorf("max = %g", got)
		}
	})
}

func TestAllreduceDeterministicOrder(t *testing.T) {
	// The reduction must combine contributions in rank order on every
	// rank, so all ranks see the bitwise-identical value even when the sum
	// is order-sensitive in floating point.
	w := NewWorld(6)
	vals := []float64{1e16, 1, -1e16, 3.14, 2.71, 1e-8}
	results := make([]float64, 6)
	w.Run(func(r *Rank) {
		for round := 0; round < 10; round++ {
			got := r.AllreduceSum(vals[r.ID()])
			if round == 0 {
				results[r.ID()] = got
			} else if got != results[r.ID()] {
				t.Errorf("rank %d: allreduce changed across rounds", r.ID())
			}
		}
	})
	for i := 1; i < 6; i++ {
		if results[i] != results[0] {
			t.Fatalf("ranks disagree: %v", results)
		}
	}
}

func TestDecomposePicksMeshLikeRatio(t *testing.T) {
	cases := []struct {
		ranks, nx, ny int
		wantPX        int
	}{
		{4, 100, 100, 2}, // square mesh -> 2x2
		{8, 400, 100, 4}, // wide mesh (ratio 4) -> 4x2 (ratio 2; |2-4| beats |8-4|)
		{8, 100, 400, 1}, // tall mesh (ratio 0.25) -> 1x8 (ratio 0.125)
		{6, 300, 100, 3}, // 3x2
		{1, 50, 50, 1},   // trivial
		{7, 100, 100, 1}, // prime: 1x7 or 7x1, ratio picks closer
	}
	for _, c := range cases {
		g := Decompose(c.ranks, c.nx, c.ny)
		if g.Size() != c.ranks {
			t.Errorf("Decompose(%d): %dx%d does not multiply out", c.ranks, g.PX, g.PY)
		}
		if c.wantPX != 0 && g.PX != c.wantPX && c.ranks != 7 {
			t.Errorf("Decompose(%d ranks, %dx%d mesh) = %dx%d, want PX=%d",
				c.ranks, c.nx, c.ny, g.PX, g.PY, c.wantPX)
		}
	}
}

// TestChunksPartitionMesh (property): for any world size and mesh, the
// chunks must tile the mesh exactly and neighbour links must be mutual.
func TestChunksPartitionMesh(t *testing.T) {
	f := func(ranksU, nxU, nyU uint8) bool {
		ranks := 1 + int(ranksU)%16
		nx := ranks + int(nxU)%64
		ny := ranks + int(nyU)%64
		g := Decompose(ranks, nx, ny)
		covered := make([][]int, ny)
		for j := range covered {
			covered[j] = make([]int, nx)
			for i := range covered[j] {
				covered[j][i] = -1
			}
		}
		chunks := make([]Chunk, ranks)
		for rank := 0; rank < ranks; rank++ {
			ch := g.ChunkOf(rank, nx, ny)
			chunks[rank] = ch
			if ch.NX <= 0 || ch.NY <= 0 {
				return false
			}
			for j := ch.Y0; j < ch.Y0+ch.NY; j++ {
				for i := ch.X0; i < ch.X0+ch.NX; i++ {
					if covered[j][i] != -1 {
						return false // overlap
					}
					covered[j][i] = rank
				}
			}
		}
		for j := range covered {
			for i := range covered[j] {
				if covered[j][i] == -1 {
					return false // gap
				}
			}
		}
		// Mutual neighbour links.
		for rank, ch := range chunks {
			if ch.Left >= 0 && chunks[ch.Left].Right != rank {
				return false
			}
			if ch.Right >= 0 && chunks[ch.Right].Left != rank {
				return false
			}
			if ch.Down >= 0 && chunks[ch.Down].Up != rank {
				return false
			}
			if ch.Up >= 0 && chunks[ch.Up].Down != rank {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHaloRing(b *testing.B) {
	const ranks = 4
	w := NewWorld(ranks)
	payload := make([]float64, 1000)
	b.ResetTimer()
	w.Run(func(r *Rank) {
		right := (r.ID() + 1) % ranks
		left := (r.ID() + ranks - 1) % ranks
		for i := 0; i < b.N; i++ {
			r.Send(right, 1, payload)
			r.Recv(left, 1)
		}
	})
}

func BenchmarkAllreduce(b *testing.B) {
	const ranks = 4
	w := NewWorld(ranks)
	b.ResetTimer()
	w.Run(func(r *Rank) {
		for i := 0; i < b.N; i++ {
			r.AllreduceSum(float64(i))
		}
	})
}
