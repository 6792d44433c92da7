package simgpu

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"github.com/warwick-hpsc/tealeaf-go/internal/par"
)

func device(t *testing.T, parallelism int) *Device {
	t.Helper()
	d := NewDevice(Props{Name: "test", Parallelism: parallelism})
	t.Cleanup(d.Close)
	return d
}

func TestMemcpyRoundTrip(t *testing.T) {
	d := device(t, 2)
	buf := d.Malloc(100)
	src := make([]float64, 100)
	for i := range src {
		src[i] = float64(i) * 1.5
	}
	d.MemcpyH2D(buf, src)
	dst := make([]float64, 100)
	d.MemcpyD2H(dst, buf)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("element %d: %g != %g", i, dst[i], src[i])
		}
	}
	st := d.Stats()
	if st.BytesH2D != 800 || st.BytesD2H != 800 {
		t.Errorf("transfer accounting = %+v", st)
	}
}

func TestLaunchCoversEveryThreadOnce(t *testing.T) {
	d := device(t, 4)
	const nx, ny = 37, 23
	buf := d.Malloc(nx * ny)
	grid := GridFor(nx, ny, Dim2{X: 8, Y: 4})
	d.Launch("fill", grid, Dim2{X: 8, Y: 4}, Args(buf), func(b Block, a [][]float64) {
		b.ForThreads(func(gx, gy int) {
			if gx >= nx || gy >= ny {
				return
			}
			a[0][gy*nx+gx] += 1
		})
	})
	out := make([]float64, nx*ny)
	d.MemcpyD2H(out, buf)
	for i, v := range out {
		if v != 1 {
			t.Fatalf("cell %d written %g times", i, v)
		}
	}
}

func TestLaunchReduceDeterministic(t *testing.T) {
	d := device(t, 8)
	const n = 10_000
	buf := d.Malloc(n)
	host := make([]float64, n)
	for i := range host {
		host[i] = float64(i%17) * 0.125
	}
	d.MemcpyH2D(buf, host)
	grid := GridFor(n, 1, Dim2{X: 64, Y: 1})
	sum := func() float64 {
		return d.LaunchReduce("sum", grid, Dim2{X: 64, Y: 1}, Args(buf),
			func(b Block, a [][]float64) float64 {
				var s float64
				b.ForThreads(func(gx, gy int) {
					if gx >= n || gy >= 1 {
						return
					}
					s += a[0][gx]
				})
				return s
			})
	}
	first := sum()
	var want float64
	for _, v := range host {
		want += v
	}
	if diff := first - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("reduce = %v, serial = %v", first, want)
	}
	for r := 0; r < 10; r++ {
		if got := sum(); got != first {
			t.Fatalf("run %d: reduction not deterministic: %v != %v", r, got, first)
		}
	}
}

// TestGridForProperty: the grid must cover the extent with the fewest
// whole blocks (quick-check).
func TestGridForProperty(t *testing.T) {
	f := func(nxU, nyU, bxU, byU uint8) bool {
		nx, ny := 1+int(nxU), 1+int(nyU)
		bx, by := 1+int(bxU)%64, 1+int(byU)%16
		g := GridFor(nx, ny, Dim2{X: bx, Y: by})
		coverX := g.X * bx
		coverY := g.Y * by
		return coverX >= nx && coverY >= ny && coverX-bx < nx && coverY-by < ny
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLaunchesSerialiseLikeAStream(t *testing.T) {
	// Two dependent launches: the second must observe all of the first's
	// writes (Launch blocks until completion, like launch+sync on the
	// default stream).
	d := device(t, 8)
	const n = 4096
	buf := d.Malloc(n)
	grid := GridFor(n, 1, Dim2{X: 32, Y: 1})
	blk := Dim2{X: 32, Y: 1}
	d.Launch("init", grid, blk, Args(buf), func(b Block, a [][]float64) {
		b.ForThreads(func(gx, gy int) {
			if gx < n && gy < 1 {
				a[0][gx] = 2
			}
		})
	})
	var bad atomic.Int64
	d.Launch("check", grid, blk, Args(buf), func(b Block, a [][]float64) {
		b.ForThreads(func(gx, gy int) {
			if gx < n && gy < 1 && a[0][gx] != 2 {
				bad.Add(1)
			}
		})
	})
	if bad.Load() != 0 {
		t.Errorf("%d cells saw stale data across launches", bad.Load())
	}
}

func TestAccountingCounters(t *testing.T) {
	d := device(t, 2)
	buf := d.Malloc(64)
	grid := GridFor(64, 1, Dim2{X: 16, Y: 1})
	for i := 0; i < 3; i++ {
		d.Launch("noop", grid, Dim2{X: 16, Y: 1}, Args(buf), func(Block, [][]float64) {})
	}
	st := d.Stats()
	if st.Launches != 3 {
		t.Errorf("launches = %d, want 3", st.Launches)
	}
	if st.BlocksRun != 12 {
		t.Errorf("blocks = %d, want 12", st.BlocksRun)
	}
	if st.Allocations != 1 {
		t.Errorf("allocations = %d, want 1", st.Allocations)
	}
}

func TestBufferGuards(t *testing.T) {
	d1 := device(t, 1)
	d2 := device(t, 1)
	buf := d1.Malloc(8)
	mustPanic(t, "cross-device", func() { d2.MemcpyH2D(buf, make([]float64, 8)) })
	mustPanic(t, "H2D overflow", func() { d1.MemcpyH2D(buf, make([]float64, 9)) })
	mustPanic(t, "D2H overread", func() { d1.MemcpyD2H(make([]float64, 9), buf) })
	mustPanic(t, "bad alloc", func() { d1.Malloc(0) })
	mustPanic(t, "empty launch", func() {
		d1.Launch("x", Dim2{}, Dim2{X: 1, Y: 1}, nil, func(Block, [][]float64) {})
	})
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestLaunchRawAndReduceRaw(t *testing.T) {
	d := device(t, 3)
	buf := d.Malloc(100)
	view := buf.View()
	grid := GridFor(100, 1, Dim2{X: 10, Y: 1})
	blk := Dim2{X: 10, Y: 1}
	d.LaunchRaw("fill", grid, blk, func(b Block) {
		b.ForThreads(func(gx, gy int) {
			if gx < 100 && gy < 1 {
				view[gx] = 3
			}
		})
	})
	got := d.LaunchReduceRaw("sum", grid, blk, func(b Block) float64 {
		var s float64
		b.ForThreads(func(gx, gy int) {
			if gx < 100 && gy < 1 {
				s += view[gx]
			}
		})
		return s
	})
	if got != 300 {
		t.Errorf("raw reduce = %g, want 300", got)
	}
}

func BenchmarkLaunchOverhead(b *testing.B) {
	d := NewDevice(Props{Parallelism: 4})
	defer d.Close()
	buf := d.Malloc(1)
	grid := Dim2{X: 1, Y: 1}
	for i := 0; i < b.N; i++ {
		d.Launch("empty", grid, grid, Args(buf), func(Block, [][]float64) {})
	}
}

func BenchmarkStencilKernel(b *testing.B) {
	d := NewDevice(Props{Parallelism: 0})
	defer d.Close()
	const n = 512
	src := d.Malloc(n * n)
	dst := d.Malloc(n * n)
	blk := Dim2{X: 64, Y: 8}
	grid := GridFor(n-2, n-2, blk)
	b.SetBytes(int64(n * n * 8))
	for i := 0; i < b.N; i++ {
		d.Launch("stencil", grid, blk, Args(src, dst), func(blkCtx Block, a [][]float64) {
			s, q := a[0], a[1]
			blkCtx.ForThreads(func(gx, gy int) {
				if gx >= n-2 || gy >= n-2 {
					return
				}
				at := (gy+1)*n + gx + 1
				q[at] = 0.25 * (s[at-1] + s[at+1] + s[at-n] + s[at+n])
			})
		})
	}
}

// segmentExtents do not divide any block edge used below: one cell, one
// short of a block, exactly one, one over, and two blocks and a bit, so the
// sweeps include 1xN, Nx1 and nx < block.X.
var segmentExtents = []int{1, 2, 63, 64, 65, 130}

// TestForRowsCoversEveryThreadOnce: the segments of a launch tile the
// problem extent exactly — every in-range thread once, nothing beyond it
// (the field carries a one-cell margin that must stay untouched).
func TestForRowsCoversEveryThreadOnce(t *testing.T) {
	d := device(t, 4)
	for _, block := range []Dim2{{X: 64, Y: 8}, {X: 16, Y: 4}, {X: 1, Y: 1}} {
		for _, nx := range segmentExtents {
			for _, ny := range segmentExtents {
				stride := nx + 2
				buf := d.Malloc(stride * (ny + 2))
				d.Launch("fill", GridFor(nx, ny, block), block, Args(buf), func(b Block, a [][]float64) {
					b.ForRows(nx, ny, func(gy, x0, x1 int) {
						for gx := x0; gx < x1; gx++ {
							a[0][(gy+1)*stride+gx+1]++
						}
					})
				})
				out := make([]float64, buf.Len())
				d.MemcpyD2H(out, buf)
				for at, v := range out {
					gx, gy := at%stride-1, at/stride-1
					want := 0.0
					if gx >= 0 && gx < nx && gy >= 0 && gy < ny {
						want = 1
					}
					if v != want {
						t.Fatalf("block %v, %dx%d: cell (%d,%d) written %g times, want %g", block, nx, ny, gx, gy, v, want)
					}
				}
			}
		}
	}
}

// TestForRowsMatchesForThreads writes the same stencil and dot product per
// thread and per row segment. ForRows hands a block its in-range threads in
// ForThreads order, so with one accumulator threaded through the block (it
// starts non-zero here) both the field and the reduced sum must agree bit
// for bit, on a one-worker and on a multi-worker device.
func TestForRowsMatchesForThreads(t *testing.T) {
	cell := func(s []float64, at, stride int) float64 {
		return 4.25*s[at] - (s[at+1] + 0.5*s[at-1]) - (0.25*s[at+stride] + s[at-stride])
	}
	for _, workers := range []int{1, 3} {
		d := device(t, workers)
		for _, block := range []Dim2{{X: 64, Y: 8}, {X: 16, Y: 4}} {
			for _, nx := range segmentExtents {
				for _, ny := range segmentExtents {
					stride := nx + 2
					host := make([]float64, stride*(ny+2))
					for i := range host {
						host[i] = 0.1 + float64(i%29)/7
					}
					src, perThread, perRow := d.Malloc(len(host)), d.Malloc(len(host)), d.Malloc(len(host))
					d.MemcpyH2D(src, host)
					grid := GridFor(nx, ny, block)
					want := d.LaunchReduce("per_thread", grid, block, Args(src, perThread),
						func(b Block, a [][]float64) float64 {
							acc := 0.375
							b.ForThreads(func(gx, gy int) {
								if gx >= nx || gy >= ny {
									return
								}
								at := (gy+1)*stride + gx + 1
								a[1][at] = cell(a[0], at, stride)
								acc += a[0][at] * a[1][at]
							})
							return acc
						})
					got := d.LaunchReduce("per_row", grid, block, Args(src, perRow),
						func(b Block, a [][]float64) float64 {
							acc := 0.375
							b.ForRows(nx, ny, func(gy, x0, x1 int) {
								row := (gy+1)*stride + 1
								for at := row + x0; at < row+x1; at++ {
									a[1][at] = cell(a[0], at, stride)
								}
								for at := row + x0; at < row+x1; at++ {
									acc += a[0][at] * a[1][at]
								}
							})
							return acc
						})
					if got != want {
						t.Errorf("%d workers, block %v, %dx%d: per-row sum %x, per-thread %x", workers, block, nx, ny, got, want)
					}
					a, b := make([]float64, len(host)), make([]float64, len(host))
					d.MemcpyD2H(a, perThread)
					d.MemcpyD2H(b, perRow)
					for at := range a {
						if a[at] != b[at] {
							t.Fatalf("%d workers, block %v, %dx%d: cell %d per-row %x, per-thread %x", workers, block, nx, ny, at, b[at], a[at])
						}
					}
				}
			}
		}
	}
}

// TestReducingLaunchAllocatesNoPartials: the per-block partials live in the
// device's own buffer, so once it has grown a reducing launch allocates
// nothing a plain launch of the same grid does not.
func TestReducingLaunchAllocatesNoPartials(t *testing.T) {
	d := device(t, 2)
	grid, block := Dim2{X: 8, Y: 4}, Dim2{X: 4, Y: 2}
	buf := d.Malloc(1)
	reduceRaw := func() { d.LaunchReduceRaw("reduce", grid, block, func(Block) float64 { return 1 }) }
	reduce := func() {
		d.LaunchReduce("reduce", grid, block, Args(buf), func(Block, [][]float64) float64 { return 1 })
	}
	reduceRaw() // grow the buffer
	plainRaw := testing.AllocsPerRun(20, func() { d.LaunchRaw("plain", grid, block, func(Block) {}) })
	plain := testing.AllocsPerRun(20, func() {
		d.Launch("plain", grid, block, Args(buf), func(Block, [][]float64) {})
	})
	if got := testing.AllocsPerRun(20, reduceRaw); got > plainRaw {
		t.Errorf("LaunchReduceRaw: %g allocations per launch, LaunchRaw %g", got, plainRaw)
	}
	if got := testing.AllocsPerRun(20, reduce); got > plain {
		t.Errorf("LaunchReduce: %g allocations per launch, Launch %g", got, plain)
	}
	if got, want := d.LaunchReduceRaw("sum", grid, block, func(b Block) float64 { return float64(b.Idx.X) }), 4.0*(0+1+2+3+4+5+6+7); got != want {
		t.Errorf("reduce over a reused buffer = %g, want %g", got, want)
	}
}

// launchForms runs one launch of each entry point over grid and returns what
// it computed: every block contributes 1, the plain forms into its own cell
// of buf (one per block), so each form yields the block count. With fail set,
// every block first calls fault, which may panic.
func launchForms(grid, block Dim2, fault func(Block)) map[string]func(d *Device, buf *Buffer, fail bool) float64 {
	one := func(b Block, fail bool) float64 {
		if fail {
			fault(b)
		}
		return 1
	}
	cell := func(b Block) int { return b.Idx.Y*b.Grid.X + b.Idx.X }
	count := func(d *Device, buf *Buffer) float64 {
		out := make([]float64, grid.Mul())
		d.MemcpyD2H(out, buf)
		var n float64
		for _, v := range out {
			n += v
		}
		return n
	}
	return map[string]func(d *Device, buf *Buffer, fail bool) float64{
		"Launch": func(d *Device, buf *Buffer, fail bool) float64 {
			d.Launch("count", grid, block, Args(buf), func(b Block, a [][]float64) { a[0][cell(b)] = one(b, fail) })
			return count(d, buf)
		},
		"LaunchRaw": func(d *Device, buf *Buffer, fail bool) float64 {
			view := buf.View()
			d.LaunchRaw("count", grid, block, func(b Block) { view[cell(b)] = one(b, fail) })
			return count(d, buf)
		},
		"LaunchReduce": func(d *Device, buf *Buffer, fail bool) float64 {
			return d.LaunchReduce("count", grid, block, Args(buf), func(b Block, _ [][]float64) float64 { return one(b, fail) })
		},
		"LaunchReduceRaw": func(d *Device, buf *Buffer, fail bool) float64 {
			return d.LaunchReduceRaw("count", grid, block, func(b Block) float64 { return one(b, fail) })
		},
	}
}

// goid returns the calling goroutine's id, read from its stack header
// ("goroutine N [running]:").
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestKernelPanicReachesCaller: a kernel that panics on one block panics out
// of the launch call with its own value, for each launch form and at every
// parallelism, so the driver's and the job service's containment see it. The
// faulty block lies in the team's last share. On a device of two or more
// threads the blocks of the earlier shares wait for it to have run, so while
// the caller runs one of those, a team worker must run the faulty block; the
// test repeats the faulting launch until that happened. After the panic the
// stream lock is free, no kernel is held, the device's next launch computes
// the right result and every launch is counted.
func TestKernelPanicReachesCaller(t *testing.T) {
	grid, block := Dim2{X: 4, Y: 3}, Dim2{X: 2, Y: 2}
	faulty := Dim2{X: 1, Y: 2} // block 9 of 12
	for _, parallelism := range []int{0, 1, 2, 3} {
		threads := max(parallelism, 1)
		lastShare, _ := par.StaticRange(0, grid.Mul(), threads-1, threads)
		var (
			ran      chan struct{} // closed by the faulty block
			caller   string        // the launching goroutine
			onWorker bool          // the faulty block ran on another goroutine
		)
		fault := func(b Block) {
			if b.Idx == faulty {
				onWorker = goid() != caller
				close(ran)
				panic("kernel fault")
			}
			if threads > 1 && b.Idx.Y*grid.X+b.Idx.X < lastShare {
				select {
				case <-ran:
				case <-time.After(10 * time.Second):
				}
			}
		}
		for name, launch := range launchForms(grid, block, fault) {
			d := device(t, parallelism)
			buf := d.Malloc(grid.Mul())
			caller = goid()
			faults := 0
			for onWorker = false; faults == 0 || (threads > 1 && !onWorker && faults < 100); faults++ {
				ran = make(chan struct{})
				func() {
					defer func() {
						if r := recover(); r != "kernel fault" {
							t.Errorf("parallelism %d, %s: recovered %v, want the kernel's panic", parallelism, name, r)
						}
					}()
					launch(d, buf, true)
				}()
				if !d.mu.TryLock() {
					t.Fatalf("parallelism %d, %s: stream lock held after a kernel panic", parallelism, name)
				}
				if d.kernel != nil {
					t.Errorf("parallelism %d, %s: kernel held after a kernel panic", parallelism, name)
				}
				d.mu.Unlock()
			}
			if threads > 1 && !onWorker {
				t.Errorf("parallelism %d, %s: the faulty block never ran on a team worker in %d launches", parallelism, name, faults)
			}
			if got, want := launch(d, buf, false), float64(grid.Mul()); got != want {
				t.Errorf("parallelism %d, %s: launch after the panic = %g, want %g", parallelism, name, got, want)
			}
			launches := int64(faults + 1)
			if st := d.Stats(); st.Launches != launches || st.BlocksRun != launches*int64(grid.Mul()) {
				t.Errorf("parallelism %d, %s: %d launches over %d blocks, want %d over %d",
					parallelism, name, st.Launches, st.BlocksRun, launches, launches*int64(grid.Mul()))
			}
		}
	}
}

// TestLaunchAllocationsDoNotGrowWithGrid: the device team hands blocks out by
// index, so a 64-block launch allocates no more than a 1-block one, on one
// thread and on three.
func TestLaunchAllocationsDoNotGrowWithGrid(t *testing.T) {
	one, many := Dim2{X: 1, Y: 1}, Dim2{X: 8, Y: 8}
	for _, parallelism := range []int{1, 3} {
		d := device(t, parallelism)
		buf := d.Malloc(1)
		forms := map[string]func(grid Dim2) func(){
			"Launch": func(grid Dim2) func() {
				return func() { d.Launch("plain", grid, one, Args(buf), func(Block, [][]float64) {}) }
			},
			"LaunchRaw": func(grid Dim2) func() {
				return func() { d.LaunchRaw("plain", grid, one, func(Block) {}) }
			},
		}
		for name, launch := range forms {
			launch(many)() // grow the device's result buffer
			small, large := testing.AllocsPerRun(20, launch(one)), testing.AllocsPerRun(20, launch(many))
			if large > small {
				t.Errorf("parallelism %d, %s: %g allocations for 64 blocks, %g for one", parallelism, name, large, small)
			}
		}
	}
}

// TestUseAfterClosePanics: every launch form on a closed device panics with
// the device's own message rather than reaching the released team.
func TestUseAfterClosePanics(t *testing.T) {
	grid := Dim2{X: 4, Y: 1}
	for name, launch := range launchForms(grid, Dim2{X: 1, Y: 1}, nil) {
		t.Run(name, func(t *testing.T) {
			d := NewDevice(Props{Parallelism: 3})
			buf := d.Malloc(grid.Mul())
			launch(d, buf, false) // healthy before Close
			d.Close()
			defer func() {
				if s, ok := recover().(string); !ok || !strings.Contains(s, "on closed device") {
					t.Fatalf("panic = %q, want a launch-on-closed-device panic", s)
				}
			}()
			launch(d, buf, false)
		})
	}
}

func TestCloseIdempotent(t *testing.T) {
	d := NewDevice(Props{Parallelism: 3})
	d.Close()
	d.Close() // must not panic or deadlock
}

// TestCloseAfterBurstDoesNotHang: a device's Close after a short burst of
// launches is its team's Close after a burst of loops, the sequence that once
// hung par one Close in 40,000; every port does it at the end of a run.
func TestCloseAfterBurstDoesNotHang(t *testing.T) {
	for cycle := 0; cycle < 500; cycle++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			d := NewDevice(Props{Parallelism: 3})
			for k := 0; k < 3; k++ {
				d.LaunchRaw("burst", Dim2{X: 8, Y: 1}, Dim2{X: 1, Y: 1}, func(Block) {})
			}
			d.Close()
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("Close hung after %d clean cycles", cycle)
		}
	}
}

// TestConcurrentLaunchesSerialise: launches from four goroutines on one
// three-thread device take turns on the stream lock, which is what keeps the
// team's one-leader rule; each launch runs only its own kernel on its own
// result slots (and the race detector sees no overlap).
func TestConcurrentLaunchesSerialise(t *testing.T) {
	d := device(t, 3)
	grid, block := Dim2{X: 8, Y: 4}, Dim2{X: 1, Y: 1}
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := d.Malloc(grid.Mul())
			for i := 0; i < 100; i++ {
				d.Launch("mark", grid, block, Args(buf), func(b Block, a [][]float64) {
					a[0][b.Idx.Y*grid.X+b.Idx.X] = float64(g)
				})
				got := d.LaunchReduce("sum", grid, block, Args(buf), func(b Block, a [][]float64) float64 {
					return a[0][b.Idx.Y*grid.X+b.Idx.X]
				})
				if want := float64(g * grid.Mul()); got != want {
					t.Errorf("goroutine %d, launch pair %d: sum %g, want %g", g, i, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
