// Command bench is the repository's benchmark spine: four workloads, each a
// deck class plus how it arrives at teaserve, measured from outside through
// the public functions of every layer. See README.md.
//
//	go run . -workload small_hot -seed 1 -seconds 22 -trace 0
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/warwick-hpsc/tealeaf-go/internal/par"
)

// Noise rules (README.md): a solve metric rests on at least minRounds
// samples; the timed serve region lasts at least minServe.
const (
	minRounds  = 9
	solveShare = 0.6 // of -seconds; the serve region gets the rest
	minServe   = 5 * time.Second
)

// stat is one reported metric. q1, q3 and n describe the in-run samples
// behind value and are zero for a metric that is a single ratio or count.
type stat struct {
	value  float64
	q1, q3 float64
	n      int
	note   string
}

// scaled returns s times f, with the unscaled value kept in the note.
func (s stat) scaled(f float64) stat {
	s.note = fmt.Sprintf("raw %.6g", s.value)
	s.value, s.q1, s.q3 = s.value*f, s.q1*f, s.q3*f
	return s
}

func sampleStat(xs []float64) stat {
	q1, q3 := quartiles(xs)
	return stat{value: median(xs), q1: q1, q3: q3, n: len(xs)}
}

// outcome is one workload run: the catalog's metrics of its mode.
type outcome struct {
	defs              []metricDef
	metrics           map[string]stat
	attempted, failed int
	problems          []string
}

func (o *outcome) set(name string, s stat) { o.metrics[name] = s }

func main() {
	var (
		name    = flag.String("workload", "small_hot", "workload to run (with -aa: comma-separated list or \"all\")")
		seed    = flag.Int64("seed", 1, "seed of the generated decks and the hot/unique draw order")
		seconds = flag.Float64("seconds", 22, "length of the measured region")
		trace   = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes out/trace-<workload>.json")
		aa      = flag.Bool("aa", false, "run each chosen workload twice back to back and compare the end-to-end metrics")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *aa {
		os.Exit(runAA(*name, *seed, *seconds))
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	out, err := runWorkload(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := report(out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if out.failed > 0 {
		os.Exit(1)
	}
}

// report prints every metric of the run's mode by name with its unit,
// then the result line. A catalog metric the run did not measure is an
// error: the names printed are exactly the names BENCHMARK.json lists.
func report(out *outcome) error {
	fmt.Printf("\n%-44s %14s %-8s %12s %12s %6s\n", "metric", "value", "unit", "q1", "q3", "n")
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonMetric, len(out.defs))
	for _, def := range out.defs {
		s, ok := out.metrics[def.name]
		if !ok || math.IsNaN(s.value) || math.IsInf(s.value, 0) {
			return fmt.Errorf("metric %s was not measured", def.name)
		}
		if s.q3 > 0 {
			fmt.Printf("%-44s %14.6g %-8s %12.6g %12.6g %6d %s\n", def.name, s.value, def.unit, s.q1, s.q3, s.n, s.note)
		} else if s.n > 0 {
			fmt.Printf("%-44s %14.6g %-8s %12s %12s %6d %s\n", def.name, s.value, def.unit, "", "", s.n, s.note)
		} else {
			fmt.Printf("%-44s %14.6g %-8s %s\n", def.name, s.value, def.unit, s.note)
		}
		metrics[def.name] = jsonMetric{s.value, def.unit}
	}
	fmt.Printf("ops_attempted %d\nops_failed %d\n", out.attempted, out.failed)
	for _, p := range out.problems {
		fmt.Println("failed:", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct": out.failed == 0, "attempted": out.attempted, "failed": out.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// stateRoot is where the benchmark writes: journals, checkpoints, sockets
// and traces, all under the benchmark's own directory.
const stateRoot = "out"

// runWorkload measures one workload. The untraced run yields the
// end-to-end metrics, the traced run the per-layer ones.
func runWorkload(w workload, seed int64, seconds float64, trace bool) (*outcome, error) {
	start := time.Now()
	out := &outcome{defs: endToEndDefs, metrics: map[string]stat{}}
	if trace {
		out.defs = perLayerDefs()
	}
	g := newDeckGen(seed)
	host := fingerprint()
	sb := &solveBench{decks: w.decks(g), reps: w.reps}
	vb := &serveBench{w: w, g: g, stateDir: fmt.Sprintf("%s/state-%s", stateRoot, w.name)}

	fmt.Printf("# bench workload=%s seed=%d seconds=%g trace=%v\n", w.name, seed, seconds, trace)
	fmt.Println(host.line)
	topo := par.DetectTopology()
	for _, d := range sb.decks {
		fb := float64(fieldBytes(d))
		fmt.Printf("deck %dx%d %s steps=%d max_iters=%d: field bytes %.1f MB = %.2fx L2, %.3fx LLC\n",
			d.NX, d.NY, d.Solver, d.EndStep, d.MaxIters, fb/1e6, fb/float64(topo.L2Size()), fb/float64(topo.LLCSize()))
	}

	// Set-up, direct side: references and one warm-up round, which pays the
	// first-use cost of every measured version.
	if err := sb.reference(); err != nil {
		return nil, err
	}
	if err := vb.prepare(); err != nil {
		return nil, err
	}
	var setupGauge gauge
	if !trace {
		sb.gauge = &setupGauge
	}
	sb.round(directRun, false)
	setup := time.Since(start)

	if trace {
		vb.spans = newSpanLog()
		if err := tracedRegion(out, w, sb, vb, host, seconds); err != nil {
			return nil, err
		}
	} else {
		var solveGauge, serveGauge gauge
		sb.gauge = &solveGauge
		solveStart := time.Now()
		budget := time.Duration(solveShare * seconds * float64(time.Second))
		for {
			sb.round(directRun, true)
			spent := time.Since(solveStart)
			if n := len(sb.sweep); n >= minRounds && spent+spent/time.Duration(n) > budget {
				break
			}
		}
		solveSpent := time.Since(solveStart)

		serveStart := time.Now()
		_, _, err := vb.warmUp(&setupGauge)
		if err != nil {
			return nil, err
		}
		setup += time.Since(serveStart)
		timed := vb.run(0, max(minServe, time.Duration(seconds*float64(time.Second))-solveSpent), vb.nextOwn, &serveGauge)
		if err := vb.finish(); err != nil {
			return nil, err
		}

		// Every gated time is scaled to the reference host's speed by the
		// yardstick pieces timed beside it; the note keeps the raw figure.
		fmt.Printf("host speed (yardstick %v / median piece): set-up %.3f over %d pieces, solve region %.3f over %d, serve region %.3f over %d\n",
			yardNominal, setupGauge.speed(), len(setupGauge.pieces), solveGauge.speed(), len(solveGauge.pieces), serveGauge.speed(), len(serveGauge.pieces))
		out.set("setup_s", stat{value: setup.Seconds()}.scaled(setupGauge.speed()))
		for v, m := range measured {
			raw := sampleStat(sb.perPass[v])
			s := raw.scaled(solveGauge.speed())
			s.note += fmt.Sprintf(", sample %.3f s = %d passes", raw.value*float64(w.reps[v]), w.reps[v])
			fmt.Printf("raw per-pass seconds, %s: %s\n", m.version, strings.Trim(fmt.Sprintf("%.4f", sb.perPass[v]), "[]"))
			if m.metric == "" {
				fmt.Printf("ungated: %s median pass %.6g s (%s)\n", m.version, s.value, s.note)
				continue
			}
			out.set(m.metric, s)
		}
		out.set("sweep_solve_s", sampleStat(sb.sweep).scaled(solveGauge.speed()))
		rate := stat{value: timed.jobsPerS(), n: timed.jobs}.scaled(1 / serveGauge.speed())
		rate.note += fmt.Sprintf(" over %.2f s", timed.wall)
		out.set("jobs_per_s", rate)
		out.set("submit_done_p50_ms", sampleStat(timed.doneMs).scaled(serveGauge.speed()))
		p90 := stat{value: percentile(timed.doneMs, 0.9), n: len(timed.doneMs)}.scaled(serveGauge.speed())
		p90.note += fmt.Sprintf(", %d samples beyond", len(timed.doneMs)/10)
		out.set("submit_done_p90_ms", p90)
	}

	out.attempted = sb.attempted + vb.attempted
	out.failed = sb.failed + vb.failed
	out.problems = append(sb.problems, vb.problems...)
	return out, nil
}

// hostInfo is the fingerprint printed at the top of every output.
type hostInfo struct {
	line      string
	triadGBps float64
}

func fingerprint() hostInfo {
	t := par.DetectTopology()
	triad := triadGBps()
	return hostInfo{triadGBps: triad, line: fmt.Sprintf(
		"host nproc=%d GOMAXPROCS=%d %s %s/%s L1d=%dK L2=%dK LLC=%dK (shared by %d) kern.triad_gbps=%.2f state-dir fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		t.L1DSize()>>10, t.L2Size()>>10, t.LLCSize()>>10, t.LLCShared, triad, filesystemOf(stateRoot))}
}

// filesystemOf names the filesystem type backing dir, from /proc/mounts.
func filesystemOf(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	abs := wd + "/" + dir
	mounts, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(mounts), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}
