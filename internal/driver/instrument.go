package driver

import "github.com/warwick-hpsc/tealeaf-go/internal/profiler"

// Instrumented wraps any port with per-kernel wall-clock timing and
// analytic traffic attribution — the project's stand-in for VTune/nvprof
// counters. Each call is timed under its kernel's profile name with the
// bytes, FLOPs and full-field sweeps the kernel table attributes to it, so
// Profile.AchievedGBs is the useful bandwidth and the sweep counters count
// the full-field passes each solver iteration makes. FetchField, the
// inspection path, is forwarded untimed.
type Instrumented struct {
	Forwarder
	inner  Kernels
	prof   *profiler.Profile
	nx, ny int64
}

// Instrument wraps k so every kernel call is recorded in prof.
func Instrument(k Kernels, prof *profiler.Profile) *Instrumented {
	in := &Instrumented{inner: k, prof: prof}
	in.Forwarder = Forward(in.intercept)
	return in
}

// Name implements Kernels.
func (in *Instrumented) Name() string { return in.inner.Name() }

// Close implements Kernels.
func (in *Instrumented) Close() { in.inner.Close() }

func (in *Instrumented) intercept(c *Call) {
	d := &kernelTable[c.ID]
	if d.Name == "" {
		c.Apply(in.inner)
		return
	}
	if c.ID == KGenerate {
		in.nx, in.ny = int64(c.Mesh.Nx), int64(c.Mesh.Ny)
	}
	bytes, flops := d.Traffic(in.nx, in.ny, c)
	in.prof.TimeSweeps(d.Name, bytes, flops, d.Sweeps, func() { c.Apply(in.inner) })
}
