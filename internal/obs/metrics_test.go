package obs

import (
	"io"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "total jobs")
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(5)
	g.Set(3)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
	// Get-or-create returns the same instrument.
	if r.Counter("jobs_total", "") != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestHistogramBucketsAreCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	var b strings.Builder
	r.WriteText(&b)
	out := b.String()
	for _, want := range []string{
		`lat_bucket{le="0.1"} 1`,
		`lat_bucket{le="1"} 3`,
		`lat_bucket{le="10"} 4`,
		`lat_bucket{le="+Inf"} 5`,
		`lat_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if h.Sum() != 56.05 {
		t.Errorf("Sum = %v, want 56.05", h.Sum())
	}
}

// expositionLine matches one valid Prometheus text-format line: a comment
// or a sample "name{labels} value".
var expositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+)$`)

// TestExpositionParses verifies every line of a mixed registry's output is
// grammatically valid text format, each family has exactly one TYPE line,
// and every sample value parses as a float.
func TestExpositionParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("teaserve_jobs_submitted_total", "jobs accepted").Add(4)
	r.Counter(`tealeaf_kernel_sweeps_total{kernel="cg_calc_w"}`, "sweeps").Add(12)
	r.Counter(`tealeaf_kernel_sweeps_total{kernel="cg_calc_p"}`, "sweeps").Add(6)
	r.Gauge("teaserve_jobs_inflight", "running now").Set(2)
	r.Histogram("teaserve_solve_seconds", "solve latency", nil).Observe(0.3)

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	var b strings.Builder
	if _, err := io.Copy(&b, resp.Body); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	typeLines := map[string]int{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Errorf("invalid exposition line %q", line)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			typeLines[strings.Fields(line)[2]]++
		}
		if !strings.HasPrefix(line, "#") {
			val := line[strings.LastIndexByte(line, ' ')+1:]
			if _, err := strconv.ParseFloat(val, 64); err != nil {
				t.Errorf("sample value %q does not parse: %v", val, err)
			}
		}
	}
	for fam, n := range typeLines {
		if n != 1 {
			t.Errorf("family %s has %d TYPE lines, want 1", fam, n)
		}
	}
	// Both labeled series share one family header.
	if typeLines["tealeaf_kernel_sweeps_total"] != 1 {
		t.Errorf("labeled family missing its single TYPE line:\n%s", out)
	}
	if !strings.Contains(out, `tealeaf_kernel_sweeps_total{kernel="cg_calc_w"} 12`) {
		t.Errorf("missing labeled sample:\n%s", out)
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestConcurrentUpdatesRace(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h", "", nil)
	g := r.Gauge("g", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Set(float64(j))
				h.Observe(float64(j) / 100)
			}
		}()
	}
	var b strings.Builder
	r.WriteText(&b) // concurrent scrape must be safe
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %v, want 8000", c.Value())
	}
	b.Reset()
	r.WriteText(&b)
	if !strings.Contains(b.String(), "h_count 8000\n") {
		t.Fatalf("histogram count is not 8000:\n%s", b.String())
	}
}
