package main

import (
	"fmt"
	"runtime"
	"time"

	tealeaf "github.com/warwick-hpsc/tealeaf-go"
	"github.com/warwick-hpsc/tealeaf-go/internal/config"
)

// qaTolerance bounds the relative difference between a solve's four
// field-summary totals and the run's manual-serial reference.
const qaTolerance = 1e-10

// runFn solves one deck on one version.
type runFn func(version string, cfg config.Config) (tealeaf.Totals, int, error)

// directRun is the untraced path: the public facade, all cores.
func directRun(version string, cfg config.Config) (tealeaf.Totals, int, error) {
	n := runtime.NumCPU()
	res, err := tealeaf.Run(cfg, tealeaf.Options{Version: version, Threads: n, Ranks: n})
	if err != nil {
		return tealeaf.Totals{}, 0, err
	}
	return res.Final, res.TotalIterations, nil
}

// solveBench is the direct-solve side of one workload run.
type solveBench struct {
	decks []config.Config
	refs  []tealeaf.Totals // manual-serial totals per deck
	reps  [8]int           // passes of the decks per sample, by version

	gauge   *gauge       // when set, one yardstick piece precedes every sample
	perPass [8][]float64 // seconds per pass of the decks, one entry per timed round
	sweep   []float64    // per round, the sum of the eight per-pass times

	attempted, failed int
	problems          []string
}

func (b *solveBench) fail(format string, args ...any) {
	b.failed++
	if len(b.problems) < 8 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// reference solves every deck on manual-serial; each later solve of the
// run is compared with these totals.
func (b *solveBench) reference() error {
	for _, d := range b.decks {
		tot, _, err := directRun("manual-serial", d)
		if err != nil {
			return fmt.Errorf("reference solve: %w", err)
		}
		b.refs = append(b.refs, tot)
	}
	return nil
}

// check counts one solve and compares it with the reference.
func (b *solveBench) check(version string, deck int, tot tealeaf.Totals, err error) {
	b.attempted++
	if err != nil {
		b.fail("%s deck %d: %v", version, deck, err)
		return
	}
	diff, err := tealeaf.CompareTotalsChecked(tot, b.refs[deck])
	if err != nil {
		b.fail("%s deck %d: %v", version, deck, err)
	} else if !(diff <= qaTolerance) {
		b.fail("%s deck %d: totals differ from manual-serial by %.3g", version, deck, diff)
	}
}

// round takes one sample of each measured version, in order, so that drift
// of the host lands on all of them alike. The collector and a yardstick
// piece run before each sample, outside the timed region. With record unset
// the round is a warm-up: checked, not kept.
func (b *solveBench) round(run runFn, record bool) {
	type outcome struct {
		deck int
		tot  tealeaf.Totals
		err  error
	}
	var outs []outcome
	roundSum := 0.0
	for v, m := range measured {
		outs = outs[:0]
		runtime.GC()
		if b.gauge != nil {
			b.gauge.add(yardPiece())
		}
		t0 := time.Now()
		for r := 0; r < b.reps[v]; r++ {
			for d, cfg := range b.decks {
				tot, _, err := run(m.version, cfg)
				outs = append(outs, outcome{d, tot, err})
			}
		}
		pass := time.Since(t0).Seconds() / float64(b.reps[v])
		for _, o := range outs {
			b.check(m.version, o.deck, o.tot, o.err)
		}
		if record {
			b.perPass[v] = append(b.perPass[v], pass)
		}
		roundSum += pass
	}
	if record {
		b.sweep = append(b.sweep, roundSum)
	}
}
