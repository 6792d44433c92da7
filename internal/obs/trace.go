package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Span is one completed, named interval — typically a kernel invocation
// recorded through a profiler span observer, or a whole job recorded by the
// serve layer.
type Span struct {
	Name  string        // event name, e.g. "cg_calc_w"
	Cat   string        // category, e.g. "kernel" or "job"
	TID   int           // trace row: jobs use their sequence number
	Start time.Time     // wall-clock start
	Dur   time.Duration // duration
}

// traceEvent is one Chrome trace-event ("X" complete event). Timestamps and
// durations are microseconds, per the trace-event format specification.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON object container chrome://tracing and Perfetto load.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// Tracer captures spans into a bounded ring buffer: when more than the
// configured maximum arrive, the oldest are dropped (Dropped counts them),
// so a long-running service's trace endpoint always returns the most recent
// window without unbounded memory growth.
type Tracer struct {
	mu      sync.Mutex
	epoch   time.Time // ts zero point for the exported timeline
	spans   []Span    // ring storage
	next    int       // ring write cursor
	full    bool      // ring has wrapped
	dropped int64
}

// DefaultTraceSpans is the span capacity used when NewTracer is given a
// non-positive maximum — roomy enough for several full bm_250 solves of
// ~20 kernel calls per CG iteration.
const DefaultTraceSpans = 1 << 16

// NewTracer creates a tracer holding at most maxSpans spans (<= 0 takes
// DefaultTraceSpans).
func NewTracer(maxSpans int) *Tracer {
	if maxSpans <= 0 {
		maxSpans = DefaultTraceSpans
	}
	return &Tracer{epoch: time.Now(), spans: make([]Span, 0, maxSpans)}
}

// Record captures one span.
func (t *Tracer) Record(s Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full && len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, s)
		return
	}
	t.full = true
	t.spans[t.next] = s
	t.next = (t.next + 1) % cap(t.spans)
	t.dropped++
}

// Observer returns a span-observer callback (the profiler.SpanObserver
// shape) recording every reported interval under the given category and
// trace row.
func (t *Tracer) Observer(cat string, tid int) func(name string, start time.Time, d time.Duration) {
	return func(name string, start time.Time, d time.Duration) {
		t.Record(Span{Name: name, Cat: cat, TID: tid, Start: start, Dur: d})
	}
}

// Len returns the number of buffered spans.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns how many spans the ring has evicted.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// snapshot returns the buffered spans oldest-first.
func (t *Tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	if t.full {
		out = append(out, t.spans[t.next:]...)
		out = append(out, t.spans[:t.next]...)
	} else {
		out = append(out, t.spans...)
	}
	return out
}

// WriteJSON renders the buffered spans as Chrome trace-event JSON — the
// {"traceEvents": [...]} object form — loadable in chrome://tracing and
// https://ui.perfetto.dev. Events are emitted in timestamp order with
// microsecond resolution relative to the tracer's creation time.
// When the ring has evicted spans the export is a *window*, not the whole
// run; a "M" (metadata) event named trace_dropped_spans with the drop count
// in its args is prepended so a trimmed trace is distinguishable from a
// complete one when loaded in a viewer or diffed by tooling.
func (t *Tracer) WriteJSON(w io.Writer) error {
	spans := t.snapshot()
	dropped := t.Dropped()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	f := traceFile{TraceEvents: make([]traceEvent, 0, len(spans)+1), DisplayTimeUnit: "ms"}
	if dropped > 0 {
		f.TraceEvents = append(f.TraceEvents, traceEvent{
			Name: "trace_dropped_spans",
			Cat:  "__metadata",
			Ph:   "M",
			PID:  1,
			TID:  1,
			Args: map[string]any{"dropped": dropped},
		})
	}
	for _, s := range spans {
		tid := s.TID
		if tid == 0 {
			tid = 1
		}
		f.TraceEvents = append(f.TraceEvents, traceEvent{
			Name: s.Name,
			Cat:  s.Cat,
			Ph:   "X",
			TS:   float64(s.Start.Sub(t.epoch)) / float64(time.Microsecond),
			Dur:  float64(s.Dur) / float64(time.Microsecond),
			PID:  1,
			TID:  tid,
		})
	}
	return json.NewEncoder(w).Encode(f)
}

// Handler serves the trace buffer as a downloadable JSON document.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="tealeaf-trace.json"`)
		if err := t.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
