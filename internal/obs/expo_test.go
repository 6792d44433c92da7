package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden pins the full text-0.0.4 rendering of a registry that
// exercises every instrument kind, labeled series, HELP escaping, and
// label-value escaping — byte for byte. Any formatting drift (bucket
// cumulation, +Inf placement, escape sequences, header order) fails here
// before it reaches a real Prometheus scraper.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "jobs accepted").Add(7)
	r.Counter(SeriesName("kernel_calls_total", "kernel", "cg_calc_w"), "per-kernel calls").Add(3)
	r.Counter(SeriesName("kernel_calls_total", "kernel", `odd"name\with`+"\n"), "per-kernel calls").Add(1)
	r.Gauge("depth", "queue depth\nsecond line \\ backslash").Set(2)
	r.GaugeFunc("live", "computed at scrape", func() float64 { return 4.5 })
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}

	const want = `# HELP jobs_total jobs accepted
# TYPE jobs_total counter
jobs_total 7
# HELP kernel_calls_total per-kernel calls
# TYPE kernel_calls_total counter
kernel_calls_total{kernel="cg_calc_w"} 3
kernel_calls_total{kernel="odd\"name\\with\n"} 1
# HELP depth queue depth\nsecond line \\ backslash
# TYPE depth gauge
depth 2
# HELP live computed at scrape
# TYPE live gauge
live 4.5
# HELP lat_seconds latency
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.1"} 1
lat_seconds_bucket{le="1"} 3
lat_seconds_bucket{le="10"} 4
lat_seconds_bucket{le="+Inf"} 5
lat_seconds_sum 56.05
lat_seconds_count 5
`
	var b strings.Builder
	r.WriteText(&b)
	if got := b.String(); got != want {
		t.Errorf("exposition drifted from golden output.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestEscapeLabelValue(t *testing.T) {
	for in, want := range map[string]string{
		`plain`:          `plain`,
		`a\b`:            `a\\b`,
		`say "hi"`:       `say \"hi\"`,
		"line\nbreak":    `line\nbreak`,
		"tab\tstays":     "tab\tstays", // only \, ", \n are escaped in text-0.0.4
		`\` + "\n" + `"`: `\\\n\"`,
	} {
		if got := EscapeLabelValue(in); got != want {
			t.Errorf("EscapeLabelValue(%q) = %q, want %q", in, got, want)
		}
	}
	if got := SeriesName("fam"); got != "fam" {
		t.Errorf("SeriesName with no labels = %q", got)
	}
	if got := SeriesName("fam", "a", `x"y`, "b", "z"); got != `fam{a="x\"y",b="z"}` {
		t.Errorf("SeriesName = %q", got)
	}
}

// TestHistogramBucketsMonotoneUnderRace hammers one histogram from many
// goroutines while scraping, asserting every scrape's buckets are
// non-decreasing in le and never exceed +Inf — the exact conformance bug the
// old cumulative-increment scheme had.
func TestHistogramBucketsMonotoneUnderRace(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{0.25, 0.5, 0.75, 1})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			v := float64(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				v = math.Mod(v*1103515245+12345, 1.25)
				h.Observe(v)
			}
		}(i)
	}
	for scrape := 0; scrape < 200; scrape++ {
		cum, count := h.snapshotCumulative()
		var prev int64
		for i, c := range cum {
			if c < prev {
				t.Fatalf("scrape %d: bucket %d decreased (%d after %d)", scrape, i, c, prev)
			}
			prev = c
		}
		if count < prev {
			t.Fatalf("scrape %d: +Inf %d < last bucket %d", scrape, count, prev)
		}
	}
	close(stop)
	wg.Wait()
}
