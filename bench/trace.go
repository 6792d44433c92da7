package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	tealeaf "github.com/warwick-hpsc/tealeaf-go"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
	"github.com/warwick-hpsc/tealeaf-go/internal/registry"
	"github.com/warwick-hpsc/tealeaf-go/internal/solver"
)

// span is one timed interval recorded by the benchmark's own files around a
// call into a layer. Spans of one request share id; parent is the index of
// the span that caused this one, -1 for a root.
type span struct {
	name, layer string
	id          string
	start, end  time.Duration // since the log's origin
	parent      int
	track       int
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, which is how the untraced run shares the code.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	// tiling sums, per version, what the traced runs' ops contexts counted.
	tiling map[string]sweepCount
}

// sweepCount is full-field sweeps against solver iterations: chain flushes
// on a tiling context, executed loops on an untiled one.
type sweepCount struct{ sweeps, iters int64 }

func newSpanLog() *spanLog {
	return &spanLog{origin: time.Now(), tiling: map[string]sweepCount{}}
}

// begin opens a span and returns its index.
func (l *spanLog) begin(name, layer, id string, parent, track int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{name: name, layer: layer, id: id, start: time.Since(l.origin), parent: parent, track: track})
	return len(l.spans) - 1
}

func (l *spanLog) finish(i int) {
	now := time.Since(l.origin)
	l.mu.Lock()
	l.spans[i].end = now
	l.mu.Unlock()
}

// job records the three client-side spans of one served job.
func (l *spanLog) job(client int, id string, submit, ack, done time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	root := len(l.spans)
	at := func(t time.Time) time.Duration { return t.Sub(l.origin) }
	l.spans = append(l.spans,
		span{name: "job", layer: "serve", id: id, start: at(submit), end: at(done), parent: -1, track: 100 + client},
		span{name: "submit_ack", layer: "serve", id: id, start: at(submit), end: at(ack), parent: root, track: 100 + client},
		span{name: "ack_done", layer: "serve", id: id, start: at(ack), end: at(done), parent: root, track: 100 + client})
}

// selfTimes returns each span's duration minus the part of it its direct
// children cover. Children of one parent never overlap here (one goroutine
// makes them in sequence), so the covered part is the sum of their lengths.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// write stores the spans as Chrome trace-event JSON (chrome://tracing,
// ui.perfetto.dev): one complete event per span, self time in args.
func (l *spanLog) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	self := selfTimes(l.spans)
	events := make([]event, len(l.spans))
	for i, s := range l.spans {
		args := map[string]any{"self_us": us(self[i])}
		if s.id != "" {
			args["id"] = s.id
		}
		events[i] = event{Name: s.name, Cat: s.layer, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: s.track, Args: args}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedKernels times every kernel call of a port as a child span of the
// run that drives it. It forwards the optional capabilities honestly, so
// the solver takes the same fused path it takes untraced.
type tracedKernels struct {
	driver.Kernels
	log        *spanLog
	run, track int
	fusedW     driver.FusedWDot
	fusedUR    driver.FusedURPrecond
	restorer   driver.FieldRestorer
}

func traceKernels(k driver.Kernels, log *spanLog, run, track int) *tracedKernels {
	return &tracedKernels{Kernels: k, log: log, run: run, track: track,
		fusedW: driver.AsFusedWDot(k), fusedUR: driver.AsFusedURPrecond(k), restorer: driver.AsFieldRestorer(k)}
}

func (t *tracedKernels) time(name string, fn func()) {
	i := t.log.begin(name, "driver", "", t.run, t.track)
	fn()
	t.log.finish(i)
}

func (t *tracedKernels) HasFusedWDot() bool      { return t.fusedW != nil }
func (t *tracedKernels) HasFusedURPrecond() bool { return t.fusedUR != nil }
func (t *tracedKernels) HasFieldRestorer() bool  { return t.restorer != nil }

func (t *tracedKernels) RestoreField(id driver.FieldID, data []float64) {
	t.time("restore_field", func() { t.restorer.RestoreField(id, data) })
}

func (t *tracedKernels) Generate(m *grid.Mesh, states []config.State) (err error) {
	t.time("generate", func() { err = t.Kernels.Generate(m, states) })
	return err
}
func (t *tracedKernels) SetField() { t.time("set_field", t.Kernels.SetField) }
func (t *tracedKernels) FieldSummary() (tot driver.Totals) {
	t.time("field_summary", func() { tot = t.Kernels.FieldSummary() })
	return tot
}
func (t *tracedKernels) HaloExchange(fields []driver.FieldID, depth int) {
	t.time("halo_exchange", func() { t.Kernels.HaloExchange(fields, depth) })
}
func (t *tracedKernels) SolveInit(coef config.Coefficient, rx, ry float64, precond config.Preconditioner) {
	t.time("solve_init", func() { t.Kernels.SolveInit(coef, rx, ry, precond) })
}
func (t *tracedKernels) SolveFinalise() { t.time("solve_finalise", t.Kernels.SolveFinalise) }
func (t *tracedKernels) ResetField()    { t.time("reset_field", t.Kernels.ResetField) }
func (t *tracedKernels) CalcResidual()  { t.time("calc_residual", t.Kernels.CalcResidual) }
func (t *tracedKernels) Norm2R() (v float64) {
	t.time("norm2_r", func() { v = t.Kernels.Norm2R() })
	return v
}
func (t *tracedKernels) DotRZ() (v float64) {
	t.time("dot_rz", func() { v = t.Kernels.DotRZ() })
	return v
}
func (t *tracedKernels) ApplyPrecond() { t.time("apply_precond", t.Kernels.ApplyPrecond) }
func (t *tracedKernels) CGInitP(precond bool) (v float64) {
	t.time("cg_init_p", func() { v = t.Kernels.CGInitP(precond) })
	return v
}
func (t *tracedKernels) CGCalcW() (v float64) {
	t.time("cg_calc_w", func() { v = t.Kernels.CGCalcW() })
	return v
}
func (t *tracedKernels) CGCalcWFused() (v float64) {
	t.time("cg_calc_w", func() { v = t.fusedW.CGCalcWFused() })
	return v
}
func (t *tracedKernels) CGCalcUR(alpha float64, precond bool) (v float64) {
	t.time("cg_calc_ur", func() { v = t.Kernels.CGCalcUR(alpha, precond) })
	return v
}
func (t *tracedKernels) CGCalcURFused(alpha float64, precond bool) (v float64) {
	t.time("cg_calc_ur", func() { v = t.fusedUR.CGCalcURFused(alpha, precond) })
	return v
}
func (t *tracedKernels) CGCalcP(beta float64, precond bool) {
	t.time("cg_calc_p", func() { t.Kernels.CGCalcP(beta, precond) })
}
func (t *tracedKernels) JacobiCopyU() { t.time("jacobi_copy_u", t.Kernels.JacobiCopyU) }
func (t *tracedKernels) JacobiIterate() (v float64) {
	t.time("jacobi_iterate", func() { v = t.Kernels.JacobiIterate() })
	return v
}
func (t *tracedKernels) ChebyInit(theta float64, precond bool) {
	t.time("cheby_init", func() { t.Kernels.ChebyInit(theta, precond) })
}
func (t *tracedKernels) ChebyIterate(alpha, beta float64, precond bool) {
	t.time("cheby_iterate", func() { t.Kernels.ChebyIterate(alpha, beta, precond) })
}
func (t *tracedKernels) PPCGInitInner(theta float64) {
	t.time("ppcg_init_inner", func() { t.Kernels.PPCGInitInner(theta) })
}
func (t *tracedKernels) PPCGInnerIterate(alpha, beta float64) {
	t.time("ppcg_inner", func() { t.Kernels.PPCGInnerIterate(alpha, beta) })
}
func (t *tracedKernels) PPCGFinishInner() { t.time("ppcg_finish_inner", t.Kernels.PPCGFinishInner) }

// portParams are the registry parameters of every direct solve: all cores.
func portParams() registry.Params {
	n := runtime.NumCPU()
	return registry.Params{Threads: n, Ranks: n}
}

// tracedRun is directRun with spans: a "run" span per solve, made the way
// tealeaf.Run makes it, with every kernel call a child.
func (l *spanLog) tracedRun(version string, cfg config.Config) (tealeaf.Totals, int, error) {
	v, err := registry.Get(version)
	if err != nil {
		return tealeaf.Totals{}, 0, err
	}
	track := 0
	for i, m := range measured {
		if m.version == version {
			track = i
		}
	}
	run := l.begin("run", "tealeaf", fmt.Sprintf("%s/%dx%d/%s", version, cfg.NX, cfg.NY, cfg.Solver), -1, track)
	defer l.finish(run)
	k, err := v.Make(portParams())
	if err != nil {
		return tealeaf.Totals{}, 0, err
	}
	defer k.Close()
	res, err := driver.Run(cfg, traceKernels(k, l, run, track), solver.New(solver.FromConfig(&cfg)), nil)
	if err != nil {
		return tealeaf.Totals{}, 0, err
	}
	if tr := driver.AsTilingReporter(k); tr != nil {
		snap := tr.TilingSnapshot()
		c := l.tiling[version]
		c.iters += int64(res.TotalIterations)
		if snap.Tiling {
			c.sweeps += snap.Flushes
		} else {
			c.sweeps += snap.LoopsExecuted
		}
		l.tiling[version] = c
	}
	return res.Final, res.TotalIterations, nil
}
