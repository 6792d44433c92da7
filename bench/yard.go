package main

import "time"

// The host this runs on works at one of a few discrete speeds, a quarter
// or more apart, and holds one for seconds to minutes; solves, serve
// throughput and set-up all move with it (README.md, "Noise"). A raw wall
// time therefore says as much about the phase as about the code. The yardstick is a fixed piece of
// bench-owned arithmetic, timed again and again between the samples of a
// run; the run's gated times are scaled to the speed at which a piece
// takes yardNominal, so that they compare across phases and across runs.

// yardNominal is the piece's wall time on the reference host (2-vCPU
// Firecracker, Xeon 2.1 GHz) in its fast phase.
const yardNominal = 10 * time.Millisecond

// yardReps is sized so that one piece takes yardNominal there.
const yardReps = 9600

var yardA, yardB [1024]float64

// yardPiece does the fixed work once and returns the seconds it took: an
// L1-resident three-point sweep with a dot, the shape of the solver's row
// bodies without their memory traffic.
func yardPiece() float64 {
	src, dst := &yardA, &yardB
	for i := range src {
		src[i] = 1 + float64(i%7)*0.125
	}
	t0 := time.Now()
	acc := 0.0
	for r := 0; r < yardReps; r++ {
		for i := 1; i < len(src)-1; i++ {
			v := 0.5*src[i] + 0.25*(src[i-1]+src[i+1])
			dst[i] = v
			acc += v * src[i]
		}
		src, dst = dst, src
	}
	dt := time.Since(t0).Seconds()
	sink += acc
	return dt
}

// gauge collects the yardstick pieces of one region of a run.
type gauge struct{ pieces []float64 }

func (g *gauge) add(piece float64) { g.pieces = append(g.pieces, piece) }

// speed is how fast the host ran during the region, as a multiple of the
// reference host: above 1 it was faster, and raw times are scaled up.
func (g *gauge) speed() float64 { return yardNominal.Seconds() / median(g.pieces) }
