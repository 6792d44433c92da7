package profiler

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestObserveAccumulates(t *testing.T) {
	p := New()
	p.ObserveSweeps("k1", 10*time.Millisecond, 1000, 500, 0)
	p.ObserveSweeps("k1", 20*time.Millisecond, 2000, 700, 0)
	p.ObserveSweeps("k2", 5*time.Millisecond, 100, 10, 0)
	entries := p.Entries()
	if len(entries) != 2 {
		t.Fatalf("entries = %d", len(entries))
	}
	// Sorted by descending time.
	if entries[0].Name != "k1" || entries[0].Calls != 2 ||
		entries[0].Bytes != 3000 || entries[0].Flops != 1200 {
		t.Errorf("k1 entry = %+v", entries[0])
	}
	d, bytes, flops := p.Totals()
	if d != 35*time.Millisecond || bytes != 3100 || flops != 1210 {
		t.Errorf("totals = %v, %d, %d", d, bytes, flops)
	}
}

func TestAchievedRates(t *testing.T) {
	p := New()
	p.ObserveSweeps("k", time.Second, 2e9, 1e9, 0)
	e := p.Entries()[0]
	if e.AchievedGBs() < 1.99 || e.AchievedGBs() > 2.01 || e.AchievedGFLOPs() < 0.99 || e.AchievedGFLOPs() > 1.01 {
		t.Errorf("entry rates = %g, %g", e.AchievedGBs(), e.AchievedGFLOPs())
	}
}

func TestZeroDurationRates(t *testing.T) {
	p := New()
	p.ObserveSweeps("k", 0, 100, 100, 0)
	e := p.Entries()[0]
	if e.AchievedGBs() != 0 || e.AchievedGFLOPs() != 0 {
		t.Error("zero-duration entry must report zero rates")
	}
}

func TestTimeWrapper(t *testing.T) {
	p := New()
	ran := false
	p.TimeSweeps("wrapped", 64, 8, 0, func() {
		ran = true
		time.Sleep(time.Millisecond)
	})
	if !ran {
		t.Fatal("wrapped function did not run")
	}
	e := p.Entries()[0]
	if e.Name != "wrapped" || e.Calls != 1 || e.Time < time.Millisecond {
		t.Errorf("entry = %+v", e)
	}
}

func TestConcurrentObserve(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				p.ObserveSweeps("hot", time.Microsecond, 8, 1, 0)
			}
		}()
	}
	wg.Wait()
	e := p.Entries()[0]
	if e.Calls != 8000 || e.Bytes != 64000 {
		t.Errorf("concurrent accumulation lost updates: %+v", e)
	}
}

func TestReportFormat(t *testing.T) {
	p := New()
	p.ObserveSweeps("cg_calc_w", 100*time.Millisecond, 4e8, 1.5e8, 0)
	p.ObserveSweeps("update_halo", 5*time.Millisecond, 1e6, 0, 0)
	var b strings.Builder
	p.Report(&b)
	out := b.String()
	for _, want := range []string{"kernel", "cg_calc_w", "update_halo", "total", "GB/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// The heaviest kernel must come first.
	if strings.Index(out, "cg_calc_w") > strings.Index(out, "update_halo") {
		t.Error("report not sorted by time")
	}
}

func TestDeterministicTieOrder(t *testing.T) {
	p := New()
	p.ObserveSweeps("b", time.Millisecond, 0, 0, 0)
	p.ObserveSweeps("a", time.Millisecond, 0, 0, 0)
	e := p.Entries()
	if e[0].Name != "a" || e[1].Name != "b" {
		t.Errorf("ties must sort by name: %v, %v", e[0].Name, e[1].Name)
	}
}

// TestSpanObserver verifies the observability hook: every TimeSweeps
// interval reaches the installed observer with a plausible start and the
// recorded duration, and uninstalling stops delivery.
func TestSpanObserver(t *testing.T) {
	p := New()
	type span struct {
		name  string
		start time.Time
		d     time.Duration
	}
	var spans []span
	p.SetSpanObserver(func(name string, start time.Time, d time.Duration) {
		spans = append(spans, span{name, start, d})
	})
	before := time.Now()
	p.TimeSweeps("k1", 8, 1, 0, func() {})
	p.TimeSweeps("k2", 8, 1, 2, func() { time.Sleep(time.Millisecond) })
	if len(spans) != 2 {
		t.Fatalf("observer saw %d spans, want 2", len(spans))
	}
	if spans[0].name != "k1" || spans[1].name != "k2" {
		t.Errorf("span names %q, %q", spans[0].name, spans[1].name)
	}
	if spans[0].start.Before(before) {
		t.Errorf("span start %v predates the call", spans[0].start)
	}
	if spans[1].d < time.Millisecond {
		t.Errorf("span duration %v shorter than the timed body", spans[1].d)
	}
	if e := p.Entries()[0]; e.Name != "k2" || e.Sweeps != 2 {
		t.Errorf("profile entry not recorded alongside the span: %+v", e)
	}
	p.SetSpanObserver(nil)
	p.TimeSweeps("k3", 8, 1, 0, func() {})
	if len(spans) != 2 {
		t.Fatalf("uninstalled observer still saw spans")
	}
}
