package par

import (
	"sync"
	"testing"
)

// legacyTeam is the pre-epoch-barrier runtime kept verbatim for comparison:
// one buffered channel per worker, one channel send + WaitGroup round-trip
// per worker per loop, and a fresh partial slice per reduction. The
// Dispatch/Reduce benchmarks below run the same bodies through both runtimes
// so `go test -bench=. -benchmem ./internal/par/` shows the before/after.
type legacyTeam struct {
	nthreads int
	tasks    []chan func(int)
	wg       sync.WaitGroup
}

func newLegacyTeam(n int) *legacyTeam {
	t := &legacyTeam{nthreads: n, tasks: make([]chan func(int), n)}
	for i := 0; i < n; i++ {
		ch := make(chan func(int), 1)
		t.tasks[i] = ch
		go func(thread int, ch chan func(int)) {
			for fn := range ch {
				fn(thread)
				t.wg.Done()
			}
		}(i, ch)
	}
	return t
}

func (t *legacyTeam) close() {
	for _, ch := range t.tasks {
		close(ch)
	}
}

func (t *legacyTeam) run(fn func(int)) {
	t.wg.Add(t.nthreads)
	for _, ch := range t.tasks {
		ch <- fn
	}
	t.wg.Wait()
}

func (t *legacyTeam) forStatic(lo, hi int, body func(from, to int)) {
	t.run(func(thread int) {
		from, to := StaticRange(lo, hi, thread, t.nthreads)
		if from < to {
			body(from, to)
		}
	})
}

func (t *legacyTeam) reduceSum(lo, hi int, body func(from, to int) float64) float64 {
	partial := make([]float64, t.nthreads)
	t.run(func(thread int) {
		from, to := StaticRange(lo, hi, thread, t.nthreads)
		if from < to {
			partial[thread] = body(from, to)
		}
	})
	var sum float64
	for _, p := range partial {
		sum += p
	}
	return sum
}

// benchThreads is the team width the paper-style dispatch comparison uses
// (8 threads, the per-socket sweet spot in the study's CPU runs). On a
// smaller host the team is oversubscribed, which is exactly the regime
// where fork-join overhead shows.
const benchThreads = 8

// BenchmarkDispatch measures bare fork-join latency: an 8-thread loop whose
// per-thread body is near-empty, so the time is all dispatch + join.
func BenchmarkDispatch(b *testing.B) {
	var sink int64
	body := func(from, to int) { sink += int64(to - from) }
	b.Run("epoch", func(b *testing.B) {
		team := NewTeam(benchThreads)
		defer team.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			team.For(0, benchThreads, body)
		}
	})
	b.Run("legacy-channels", func(b *testing.B) {
		team := newLegacyTeam(benchThreads)
		defer team.close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			team.forStatic(0, benchThreads, body)
		}
	})
	_ = sink
}

// cgCalcW builds a 256² five-point-stencil workload shaped like the
// cg_calc_w kernel: w = A·p per row, returning the row's p·w partial.
type cgCalcW struct {
	n          int
	p, w, x, y []float64
}

func newCGCalcW(n int) *cgCalcW {
	k := &cgCalcW{
		n: n,
		p: make([]float64, n*n),
		w: make([]float64, n*n),
		x: make([]float64, n*n),
		y: make([]float64, n*n),
	}
	for i := range k.p {
		k.p[i] = 1.0 + float64(i%7)*0.125
		k.x[i] = 0.0625
		k.y[i] = 0.0625
	}
	return k
}

func (k *cgCalcW) rows(j0, j1 int) float64 {
	n := k.n
	var pw float64
	for j := j0; j < j1; j++ {
		lo, hi := j*n, (j+1)*n
		for i := lo + 1; i < hi-1; i++ {
			w := (1.0+2*k.x[i]+2*k.y[i])*k.p[i] -
				k.x[i]*(k.p[i-1]+k.p[i+1])
			if i >= n {
				w -= k.y[i] * k.p[i-n]
			}
			if i < len(k.p)-n {
				w -= k.y[i] * k.p[i+n]
			}
			k.w[i] = w
			pw += w * k.p[i]
		}
	}
	return pw
}

// BenchmarkCGCalcW runs the 256² cg_calc_w-shaped reduction — the ISSUE's
// target workload — through both runtimes at 8 threads.
func BenchmarkCGCalcW(b *testing.B) {
	k := newCGCalcW(256)
	body := k.rows // hoisted: a per-call method value would allocate
	b.Run("epoch", func(b *testing.B) {
		team := NewTeam(benchThreads)
		defer team.Close()
		b.ReportAllocs()
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += team.ReduceSum(0, k.n, body)
		}
		_ = sink
	})
	b.Run("legacy-channels", func(b *testing.B) {
		team := newLegacyTeam(benchThreads)
		defer team.close()
		b.ReportAllocs()
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += team.reduceSum(0, k.n, body)
		}
		_ = sink
	})
}

func BenchmarkForkJoin(b *testing.B) {
	team := NewTeam(0)
	defer team.Close()
	data := make([]float64, 1<<16)
	body := func(from, to int) {
		for j := from; j < to; j++ {
			data[j] += 1
		}
	}
	b.SetBytes(int64(len(data) * 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		team.For(0, len(data), body)
	}
}

func BenchmarkReduceSum(b *testing.B) {
	team := NewTeam(benchThreads)
	defer team.Close()
	data := make([]float64, 1<<16)
	for i := range data {
		data[i] = float64(i)
	}
	body := func(from, to int) float64 {
		var s float64
		for j := from; j < to; j++ {
			s += data[j]
		}
		return s
	}
	b.SetBytes(int64(len(data) * 8))
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += team.ReduceSum(0, len(data), body)
	}
	_ = sink
}
