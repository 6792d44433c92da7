package perfmodel

import (
	"fmt"
	"math"
	"sort"
)

// launchOverheadSec is the modeled cost of one kernel launch on the GPU
// (driver latency + synchronisation); it differentially penalises the
// small dataset, where the paper observes GPUs barely ahead of CPUs.
const launchOverheadSec = 40e-6

// Estimate is the model's prediction for one (version, machine, workload)
// triple.
type Estimate struct {
	Version string
	Machine MachineID
	// Seconds is the modeled wall time of the whole run.
	Seconds float64
	// AchievedBW is useful traffic / time, in GB/s — what a profiler's
	// bandwidth counter would show for this streaming-bound code.
	AchievedBW float64
	// AchievedGFLOPs is flops / time.
	AchievedGFLOPs float64
	// BWEff and ComputeEff are the architecture efficiencies
	// (achieved / machine peak).
	BWEff, ComputeEff float64
}

// Supported reports whether the version runs on the machine (in the study:
// CPU versions on Xeon/KNL except OpenACC-host on KNL; GPU versions on the
// P100 only).
func Supported(version string, m MachineID) bool {
	byMachine, ok := calibration[version]
	if !ok {
		return false
	}
	_, ok = byMachine[m]
	return ok
}

// VersionEfficiency returns the calibrated sustained-throughput fraction
// of a version on a machine for an n-by-n problem, interpolating between
// the small and large anchors in log(n).
func VersionEfficiency(version string, m MachineID, n int) (float64, error) {
	byMachine, ok := calibration[version]
	if !ok {
		return 0, fmt.Errorf("perfmodel: no calibration for version %q", version)
	}
	e, ok := byMachine[m]
	if !ok {
		return 0, fmt.Errorf("perfmodel: version %q does not run on %q", version, m)
	}
	switch {
	case n <= smallN:
		return e.Small, nil
	case n >= largeN:
		return e.Large, nil
	default:
		t := (math.Log(float64(n)) - math.Log(smallN)) / (math.Log(largeN) - math.Log(smallN))
		return e.Small + t*(e.Large-e.Small), nil
	}
}

// Time models the wall time of a workload for one version on one machine:
// useful traffic over the bandwidth the version sustains there, plus
// launch overhead on the accelerator.
func Time(version string, m Machine, w Workload) (Estimate, error) {
	eff, err := VersionEfficiency(version, m.ID, w.N)
	if err != nil {
		return Estimate{}, err
	}
	if eff <= 0 {
		return Estimate{}, fmt.Errorf("perfmodel: version %q has zero efficiency on %q", version, m.ID)
	}
	bw := m.SustainedBW(w.Cells(), w.FootprintBytes()) * eff
	seconds := w.UsefulBytes() / (bw * 1e9)
	if m.IsGPU {
		seconds += w.Launches() * launchOverheadSec
	}
	est := Estimate{
		Version: version,
		Machine: m.ID,
		Seconds: seconds,
	}
	est.AchievedBW = w.UsefulBytes() / seconds / 1e9
	est.AchievedGFLOPs = w.Flops() / seconds / 1e9
	est.BWEff = est.AchievedBW / m.PeakBW
	est.ComputeEff = est.AchievedGFLOPs / m.PeakGFLOPs
	return est, nil
}

// CalibratedVersions lists every version with calibration data, sorted.
func CalibratedVersions() []string {
	out := make([]string, 0, len(calibration))
	for v := range calibration {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
