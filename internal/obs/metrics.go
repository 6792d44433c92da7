package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// atomicFloat is a lock-free float64 accumulator (CAS on the bit pattern),
// so counters and gauges can be bumped from solve hot paths without taking
// the registry lock.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing metric. Decreasing it is a
// programmer error the type does not police (exposition would still be
// well-formed), so keep Add arguments non-negative.
type Counter struct{ v atomicFloat }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds v, which must be non-negative for the series to stay monotone.
func (c *Counter) Add(v float64) { c.v.Add(v) }

// Value returns the current total.
func (c *Counter) Value() float64 { return c.v.Load() }

// Gauge is a metric that can go up and down (queue depth, jobs in flight).
type Gauge struct{ v atomicFloat }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Histogram counts observations into buckets and renders them cumulatively,
// Prometheus-style: exposed bucket i counts observations <= UpperBounds[i],
// and the +Inf bucket equals the total count.
//
// Internally each bucket holds only its own band (non-cumulative) and the
// exposition prefix-sums a snapshot. That is what keeps a concurrent scrape
// conformant: a per-band snapshot prefix-summed is monotone by construction,
// whereas incrementing cumulative counters one by one (the previous scheme)
// let a scrape land mid-update and observe bucket counts that *decreased*
// with increasing le — invalid text-0.0.4 exposition that Prometheus'
// quantile math silently mangles.
type Histogram struct {
	bounds []float64 // ascending upper bounds, +Inf excluded
	counts []atomic.Int64
	sum    atomicFloat
	count  atomic.Int64
}

// Observe records one sample. The total count is incremented before the
// band so a scrape that reads bands first and the count second (as
// WriteText does) always sees +Inf >= every cumulative bucket.
func (h *Histogram) Observe(v float64) {
	h.count.Add(1)
	h.sum.Add(v)
	// First bound with v <= bound; v above every bound lands only in +Inf.
	if i := sort.SearchFloat64s(h.bounds, v); i < len(h.bounds) {
		h.counts[i].Add(1)
	}
}

// snapshotCumulative returns the cumulative bucket counts (one per bound),
// then the total count — read strictly after the bands so the rendered
// +Inf bucket can never undercut a bucket. The total may exceed the last
// cumulative bucket; the excess is the +Inf band.
func (h *Histogram) snapshotCumulative() ([]int64, int64) {
	cum := make([]int64, len(h.bounds))
	var run int64
	for i := range h.counts {
		run += h.counts[i].Load()
		cum[i] = run
	}
	return cum, h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// DefBuckets are the default latency buckets (seconds), matching the
// Prometheus client defaults so dashboards transfer.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// metric is one registered instrument.
type metric struct {
	family string // name before any {label} clause
	labels string // label clause including braces, or ""
	kind   string // "counter", "gauge", "histogram"
	c      *Counter
	g      *Gauge
	h      *Histogram
	gf     func() float64 // callback gauge; rendered live at scrape time
}

// Registry holds a set of named metrics and renders them in the Prometheus
// text exposition format. Metric names follow Prometheus conventions and may
// carry a literal label clause — Counter(`jobs_total{version="manual-omp"}`,
// ...) registers one series of the jobs_total family — with HELP/TYPE
// emitted once per family. Registration is get-or-create: asking for an
// existing name returns the existing instrument, so hot paths may re-resolve
// by name. Registering the same family under two different kinds panics
// (programmer error, caught at wiring time).
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric // full name -> instrument
	help    map[string]string  // family -> help text
	kinds   map[string]string  // family -> kind
	order   []string           // full names, registration order
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		metrics: make(map[string]*metric),
		help:    make(map[string]string),
		kinds:   make(map[string]string),
	}
}

// splitName separates a metric name into family and label clause and
// validates the family against the Prometheus grammar.
func splitName(name string) (family, labels string) {
	family = name
	if i := strings.IndexByte(name, '{'); i >= 0 {
		family, labels = name[:i], name[i:]
		if !strings.HasSuffix(labels, "}") || len(labels) < 3 {
			panic(fmt.Sprintf("obs: malformed label clause in metric name %q", name))
		}
	}
	if family == "" {
		panic("obs: empty metric name")
	}
	for i, r := range family {
		ok := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			panic(fmt.Sprintf("obs: invalid metric name %q", name))
		}
	}
	return family, labels
}

// register looks a full name up, creating it with mk on first use.
func (r *Registry) register(name, help, kind string, mk func() *metric) *metric {
	family, labels := splitName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q already registered as %s, not %s", name, m.kind, kind))
		}
		return m
	}
	if k, ok := r.kinds[family]; ok && k != kind {
		panic(fmt.Sprintf("obs: metric family %q already registered as %s, not %s", family, k, kind))
	}
	m := mk()
	m.family, m.labels, m.kind = family, labels, kind
	r.metrics[name] = m
	r.kinds[family] = kind
	if _, ok := r.help[family]; !ok {
		r.help[family] = help
	}
	r.order = append(r.order, name)
	return m
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, "counter", func() *metric { return &metric{c: &Counter{}} }).c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, "gauge", func() *metric { return &metric{g: &Gauge{}} }).g
}

// GaugeFunc registers a gauge whose value is computed by fn at every scrape
// — the bridge for state owned elsewhere (a tracer's drop counter, a cache's
// occupancy) that should be observable without a write on every change. The
// callback must be fast and safe for concurrent use. Re-registering an
// existing name keeps the first callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", func() *metric { return &metric{gf: fn} })
}

// Histogram returns the named histogram, creating it on first use with the
// given ascending bucket upper bounds (nil takes DefBuckets). The bounds of
// an already-registered histogram are kept; they are fixed at creation.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.register(name, help, "histogram", func() *metric {
		if bounds == nil {
			bounds = DefBuckets
		}
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		return &metric{h: &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs))}}
	}).h
}

// helpEscaper escapes HELP text per the text-0.0.4 format: backslash and
// newline only (double quotes are NOT escaped in help).
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// labelEscaper escapes a label value per the text-0.0.4 format: backslash,
// double-quote and newline. These are the only escape sequences the format
// defines — Go's %q also emits \t, \xNN and friends, which Prometheus
// parsers reject or misread, so label values must come through here.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// EscapeLabelValue returns s escaped for use inside a label-value quote per
// the Prometheus text exposition format.
func EscapeLabelValue(s string) string { return labelEscaper.Replace(s) }

// SeriesName builds a labeled series name from a family and key/value label
// pairs with conformant label-value escaping:
// SeriesName("kernel_calls_total", "kernel", `say "hi"`) ==
// `kernel_calls_total{kernel="say \"hi\""}`. Use it instead of hand-rolled
// fmt %q formatting when a label value is not a known-safe literal.
func SeriesName(family string, kv ...string) string {
	if len(kv) == 0 {
		return family
	}
	if len(kv)%2 != 0 {
		panic("obs: SeriesName needs key/value pairs")
	}
	var b strings.Builder
	b.WriteString(family)
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(EscapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// sampleName joins a family suffix and a label pair onto a series name:
// sampleName("x", `{a="b"}`, "_bucket", `le="1"`) == `x_bucket{a="b",le="1"}`.
func sampleName(family, labels, suffix, extra string) string {
	name := family + suffix
	switch {
	case labels == "" && extra == "":
		return name
	case labels == "":
		return name + "{" + extra + "}"
	case extra == "":
		return name + labels
	default:
		return name + strings.TrimSuffix(labels, "}") + "," + extra + "}"
	}
}

// WriteText renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): one # HELP and # TYPE line per family,
// then the family's series in registration order.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	metrics := make([]*metric, len(names))
	for i, n := range names {
		metrics[i] = r.metrics[n]
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	written := make(map[string]bool)
	emitHeader := func(m *metric) {
		if written[m.family] {
			return
		}
		written[m.family] = true
		if h := help[m.family]; h != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", m.family, helpEscaper.Replace(h))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", m.family, m.kind)
	}
	// Group each family's series together even when registrations of other
	// families interleaved: first pass in registration order per family.
	for i, m := range metrics {
		if written[m.family] {
			continue
		}
		emitHeader(m)
		for _, mm := range metrics[i:] {
			if mm.family != m.family {
				continue
			}
			switch mm.kind {
			case "counter":
				fmt.Fprintf(w, "%s %v\n", sampleName(mm.family, mm.labels, "", ""), mm.c.Value())
			case "gauge":
				switch {
				case mm.gf != nil:
					fmt.Fprintf(w, "%s %v\n", sampleName(mm.family, mm.labels, "", ""), mm.gf())
				default:
					fmt.Fprintf(w, "%s %v\n", sampleName(mm.family, mm.labels, "", ""), mm.g.Value())
				}
			case "histogram":
				h := mm.h
				// Sum is read before the buckets so it never includes an
				// observation the bucket snapshot missed; the cumulative
				// snapshot reads the total count after the bands, keeping
				// le="+Inf" >= every bucket under concurrent Observes.
				sum := h.Sum()
				cum, count := h.snapshotCumulative()
				for bi, b := range h.bounds {
					fmt.Fprintf(w, "%s %d\n",
						sampleName(mm.family, mm.labels, "_bucket", `le="`+formatBound(b)+`"`),
						cum[bi])
				}
				fmt.Fprintf(w, "%s %d\n", sampleName(mm.family, mm.labels, "_bucket", `le="+Inf"`), count)
				fmt.Fprintf(w, "%s %v\n", sampleName(mm.family, mm.labels, "_sum", ""), sum)
				fmt.Fprintf(w, "%s %d\n", sampleName(mm.family, mm.labels, "_count", ""), count)
			}
		}
	}
}

// formatBound renders a bucket bound the way Prometheus does (no exponent
// for the usual latency bounds).
func formatBound(b float64) string {
	if b == math.Trunc(b) && math.Abs(b) < 1e15 {
		return fmt.Sprintf("%d", int64(b))
	}
	return fmt.Sprintf("%g", b)
}

// Handler serves the registry as a Prometheus scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}
