package main

import (
	"fmt"
	"os"
	"strings"
)

// aaTolerance is the issue's design target for two runs of the same code.
// The regression bounds in BENCHMARK.json are wider (README.md, "Noise").
const aaTolerance = 0.05

// runAA runs each chosen workload twice back to back on the same seed and
// prints, per end-to-end metric, both values, the in-run quartiles behind
// them, the sample count and the relative difference. It returns the exit
// code: 1 if any pair differs by more than aaTolerance or an operation
// failed.
func runAA(names string, seed int64, seconds float64) int {
	chosen := workloads
	if names != "all" {
		chosen = nil
		for _, name := range strings.Split(names, ",") {
			w, err := workloadByName(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			chosen = append(chosen, w)
		}
	}
	var table strings.Builder
	table.WriteString("| workload | metric | unit | run A | A q1 – q3 | run B | B q1 – q3 | n | rel diff |\n")
	table.WriteString("|---|---|---|---|---|---|---|---|---|\n")
	exit := 0
	for _, w := range chosen {
		var runs [2]*outcome
		for i := range runs {
			out, err := runWorkload(w, seed, seconds, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if out.failed > 0 {
				fmt.Printf("%s: %d of %d operations failed: %v\n", w.name, out.failed, out.attempted, out.problems)
				exit = 1
			}
			runs[i] = out
		}
		for _, def := range endToEndDefs {
			a, b := runs[0].metrics[def.name], runs[1].metrics[def.name]
			diff := relDiff(a.value, b.value)
			mark := ""
			if diff > aaTolerance {
				mark = " **>**"
				exit = 1
			}
			spread := func(s stat) string {
				if s.q3 == 0 {
					return "–"
				}
				return fmt.Sprintf("%.4g – %.4g", s.q1, s.q3)
			}
			fmt.Fprintf(&table, "| %s | %s | %s | %.5g | %s | %.5g | %s | %d | %.3f%s |\n",
				w.name, def.name, def.unit, a.value, spread(a), b.value, spread(b), max(a.n, 1), diff, mark)
		}
	}
	fmt.Printf("\nA/A: two runs per workload, seed %d, %g s measured each; tolerance %.2f\n\n%s", seed, seconds, aaTolerance, table.String())
	return exit
}
