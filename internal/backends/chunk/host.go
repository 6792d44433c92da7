package chunk

import (
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
	"github.com/warwick-hpsc/tealeaf-go/internal/par"
)

// Host is the host policy behind the serial, OpenMP, OpenACC and MPI ports.
// Fields are grid.Fields, whose padded storage is the chunk's row-major
// layout, so a port can also reach them as grid rows. Every launch hands
// whole rows of its window, in row order, to the static shares of a thread
// team, or to the caller's goroutine when the team is nil. A Reduce share
// threads one accumulator through its rows and the shares combine in team
// order.
type Host struct {
	team *par.Team
	// Guided hands For rows out in guided claims of at least four rows (the
	// OpenACC device target's gang schedule); Reduce keeps static shares.
	Guided bool

	// The launch in flight. The row loops are bound once, in NewHost, and
	// read it from here, so a launch allocates nothing of its own.
	a          [][]float64
	win        Window
	stride     int
	body       Body
	red        RedBody
	forRows    func(j0, j1 int)
	reduceRows func(j0, j1 int) float64
}

// The recipe is instantiated here, on the host policy's storage, so that this
// package's export data carries the inline bodies of the kern functions its
// launch bodies call. Go compiles a generic body in each package that
// instantiates it, and a port that does not import kern itself could not
// inline them otherwise: every body called each kern row function out of
// line.
var _ = New[*grid.Field]

// NewHost returns the host policy on team; nil runs every launch on the
// caller's goroutine.
func NewHost(team *par.Team) *Host {
	h := &Host{team: team}
	h.forRows, h.reduceRows = h.runFor, h.runReduce
	return h
}

// Alloc implements Policy, one field per claim on the team, so the fields'
// zeroing and page faults run on every thread.
func (h *Host) Alloc(n, rows, cols int) []*grid.Field {
	f := make([]*grid.Field, n)
	alloc := func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			f[k] = grid.New(cols-2*halo, rows-2*halo)
		}
	}
	if h.team == nil {
		alloc(0, n)
	} else {
		h.team.ForDynamic(0, n, 1, alloc)
	}
	return f
}

// For implements Policy.
func (h *Host) For(_ string, win Window, args []*grid.Field, body Body) {
	h.launch(win, args)
	h.body = body
	switch {
	case h.team == nil:
		h.forRows(win.Y0, win.Y1)
	case h.Guided:
		h.team.ForGuided(win.Y0, win.Y1, 4, h.forRows)
	default:
		h.team.For(win.Y0, win.Y1, h.forRows)
	}
}

// Reduce implements Policy.
func (h *Host) Reduce(_ string, win Window, args []*grid.Field, body RedBody) float64 {
	h.launch(win, args)
	h.red = body
	if h.team == nil {
		return h.reduceRows(win.Y0, win.Y1)
	}
	return h.team.ReduceSum(win.Y0, win.Y1, h.reduceRows)
}

// launch resolves args into the policy's slice scratch.
func (h *Host) launch(win Window, args []*grid.Field) {
	h.a = h.a[:0]
	for _, f := range args {
		h.a = append(h.a, f.Data)
	}
	h.win, h.stride = win, args[0].Stride
}

func (h *Host) runFor(j0, j1 int) {
	a, body, stride, x0, x1 := h.a, h.body, h.stride, h.win.X0, h.win.X1
	for j := j0; j < j1; j++ {
		body(a, j*stride+x0, j*stride+x1)
	}
}

func (h *Host) runReduce(j0, j1 int) (acc float64) {
	a, body, stride, x0, x1 := h.a, h.red, h.stride, h.win.X0, h.win.X1
	for j := j0; j < j1; j++ {
		acc = body(a, j*stride+x0, j*stride+x1, acc)
	}
	return acc
}
