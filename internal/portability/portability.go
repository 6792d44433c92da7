// Package portability implements the performance-portability metric of
// Pennycook, Sewall and Lee ("A Metric for Performance Portability",
// arXiv:1611.07409), the measure Section V of the paper applies to
// TeaLeaf:
//
//	P(a, p, H) = |H| / sum_{i in H} 1/e_i(a, p)   if a runs on every i in H
//	           = 0                                 otherwise
//
// the harmonic mean of per-platform efficiencies, with either application
// efficiency (best observed time / achieved time) or architecture
// efficiency (achieved fraction of peak compute or bandwidth) as e_i.
//
// Concurrency and ownership: the package is purely functional — it takes
// efficiency tables in, returns scores out, holds no state, and is safe
// from any goroutine.
package portability

// Efficiency is one application's efficiency on one platform, in [0, 1].
// Unsupported platform/application pairs are recorded with Supported =
// false and force a zero score.
type Efficiency struct {
	Platform  string
	Value     float64
	Supported bool
}

// Pennycook computes P(a, p, H) from per-platform efficiencies. It returns
// 0 when the set is empty, when any platform is unsupported, or when any
// efficiency is zero (the limit of the harmonic mean).
func Pennycook(effs []Efficiency) float64 {
	if len(effs) == 0 {
		return 0
	}
	var invSum float64
	for _, e := range effs {
		if !e.Supported || e.Value <= 0 {
			return 0
		}
		invSum += 1 / e.Value
	}
	return float64(len(effs)) / invSum
}

// AppEfficiencies converts measured runtimes into application
// efficiencies: for each platform, an application's efficiency is the best
// time on that platform divided by the application's time. times maps
// application -> platform -> seconds; a missing entry means the
// application does not run there. Applications present on no shared
// platform get empty slices.
func AppEfficiencies(times map[string]map[string]float64, platforms []string) map[string][]Efficiency {
	best := make(map[string]float64, len(platforms))
	for _, p := range platforms {
		for _, byPlatform := range times {
			t, ok := byPlatform[p]
			if !ok || t <= 0 {
				continue
			}
			if b, seen := best[p]; !seen || t < b {
				best[p] = t
			}
		}
	}
	out := make(map[string][]Efficiency, len(times))
	for app, byPlatform := range times {
		effs := make([]Efficiency, 0, len(platforms))
		for _, p := range platforms {
			t, ok := byPlatform[p]
			if !ok || t <= 0 {
				effs = append(effs, Efficiency{Platform: p, Supported: false})
				continue
			}
			effs = append(effs, Efficiency{Platform: p, Value: best[p] / t, Supported: true})
		}
		out[app] = effs
	}
	return out
}
