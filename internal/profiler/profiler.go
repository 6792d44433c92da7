// Package profiler provides the per-kernel timing and traffic counters the
// study's analysis needs — the stand-in for Intel VTune and nvprof, which
// supplied the achieved-bandwidth and achieved-FLOP/s numbers behind the
// paper's architecture-efficiency columns (Table III). Kernels report
// wall time plus analytically-counted bytes and floating-point operations;
// the profile then yields achieved GB/s and GFLOP/s.
//
// Concurrency and ownership: a Profile is safe for concurrent use — kernels
// on different goroutines may record into the same profile, and a profile
// owns its entries (callers read them only through Entries/Report
// snapshots). The optional SpanObserver is the one outward edge: it is
// invoked synchronously on the recording goroutine for every timed
// interval, so observers must be fast and must not call back into the
// profile they observe (internal/obs.Tracer satisfies this).
package profiler

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Entry accumulates one kernel's activity.
type Entry struct {
	Name   string
	Calls  int64
	Time   time.Duration
	Bytes  int64 // memory traffic attributed to the kernel
	Flops  int64 // floating-point operations attributed to the kernel
	Sweeps int64 // full-field memory sweeps attributed to the kernel
}

// AchievedGBs returns the kernel's achieved bandwidth in GB/s.
func (e *Entry) AchievedGBs() float64 {
	if e.Time <= 0 {
		return 0
	}
	return float64(e.Bytes) / e.Time.Seconds() / 1e9
}

// AchievedGFLOPs returns the kernel's achieved FLOP rate in GFLOP/s.
func (e *Entry) AchievedGFLOPs() float64 {
	if e.Time <= 0 {
		return 0
	}
	return float64(e.Flops) / e.Time.Seconds() / 1e9
}

// SpanObserver receives one completed timed interval as it is recorded —
// the hook the observability layer uses to capture per-kernel spans for
// Chrome-trace export without the profiler importing it. Observers must be
// fast and must not call back into the profile they observe.
type SpanObserver func(name string, start time.Time, d time.Duration)

// Gauge is a named point-in-time value attached to a profile — run-level
// facts that are not per-kernel accumulations, such as the tiled execution
// layer's achieved sweeps per CG iteration or its resolved tile geometry.
type Gauge struct {
	Name  string
	Value float64
}

// Profile is a set of kernel entries. The zero value is unusable; create
// profiles with New. All methods are safe for concurrent use.
type Profile struct {
	mu      sync.Mutex
	entries map[string]*Entry
	gauges  map[string]float64
	span    atomic.Value // SpanObserver, set at most once per solve wiring
}

// New creates an empty profile.
func New() *Profile {
	return &Profile{entries: make(map[string]*Entry), gauges: make(map[string]float64)}
}

// SetGauge records (or overwrites) a run-level gauge value.
func (p *Profile) SetGauge(name string, v float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gauges[name] = v
}

// Gauges returns the recorded gauges sorted by name.
func (p *Profile) Gauges() []Gauge {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Gauge, 0, len(p.gauges))
	for n, v := range p.gauges {
		out = append(out, Gauge{Name: n, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SetSpanObserver installs fn to be called for every interval Time and
// TimeSweeps record (Observe-only callers report no span: they have no
// start time). A nil fn uninstalls. Safe to call concurrently with
// recording; spans in flight may still reach a just-replaced observer.
func (p *Profile) SetSpanObserver(fn SpanObserver) {
	p.span.Store(fn)
}

// spanObserver returns the installed observer, or nil.
func (p *Profile) spanObserver() SpanObserver {
	fn, _ := p.span.Load().(SpanObserver)
	return fn
}

// ObserveSweeps records one kernel invocation including its full-field
// sweep count.
func (p *Profile) ObserveSweeps(name string, d time.Duration, bytes, flops, sweeps int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entries[name]
	if e == nil {
		e = &Entry{Name: name}
		p.entries[name] = e
	}
	e.Calls++
	e.Time += d
	e.Bytes += bytes
	e.Flops += flops
	e.Sweeps += sweeps
}

// TimeSweeps runs fn, timing it under the kernel name with the given
// traffic and sweep attribution.
func (p *Profile) TimeSweeps(name string, bytes, flops, sweeps int64, fn func()) {
	start := time.Now()
	fn()
	d := time.Since(start)
	p.ObserveSweeps(name, d, bytes, flops, sweeps)
	if obs := p.spanObserver(); obs != nil {
		obs(name, start, d)
	}
}

// TotalSweeps returns the profile-wide full-field sweep count.
func (p *Profile) TotalSweeps() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var s int64
	for _, e := range p.entries {
		s += e.Sweeps
	}
	return s
}

// Entries returns the kernels sorted by descending total time.
func (p *Profile) Entries() []Entry {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Entry, 0, len(p.entries))
	for _, e := range p.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time > out[j].Time
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Totals returns the profile-wide sums.
func (p *Profile) Totals() (d time.Duration, bytes, flops int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.entries {
		d += e.Time
		bytes += e.Bytes
		flops += e.Flops
	}
	return d, bytes, flops
}

// Report writes a VTune-style per-kernel table.
func (p *Profile) Report(w io.Writer) {
	fmt.Fprintf(w, "%-28s %10s %12s %10s %10s %8s\n", "kernel", "calls", "time", "GB/s", "GFLOP/s", "sweeps")
	for _, e := range p.Entries() {
		fmt.Fprintf(w, "%-28s %10d %12s %10.2f %10.2f %8d\n",
			e.Name, e.Calls, e.Time.Round(time.Microsecond), e.AchievedGBs(), e.AchievedGFLOPs(), e.Sweeps)
	}
	d, bytes, flops := p.Totals()
	fmt.Fprintf(w, "%-28s %10s %12s %10.2f %10.2f %8d\n", "total", "",
		d.Round(time.Microsecond),
		safeRate(bytes, d), safeRate(flops, d), p.TotalSweeps())
	if gs := p.Gauges(); len(gs) > 0 {
		fmt.Fprintf(w, "%-28s\n", "-- gauges --")
		for _, g := range gs {
			fmt.Fprintf(w, "%-28s %14.4g\n", g.Name, g.Value)
		}
	}
}

func safeRate(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds() / 1e9
}
