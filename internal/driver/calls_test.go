package driver

import (
	"reflect"
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
)

// TestKernelTableComplete: every Kernels method except Name and Close has
// exactly one descriptor, every descriptor names a Kernels method, and only
// kernels returning a float64 (the result Call.Value carries) are marked
// poisonable.
func TestKernelTableComplete(t *testing.T) {
	kt := reflect.TypeOf((*Kernels)(nil)).Elem()
	seen := map[string]int{}
	for id := KernelID(0); id < numKernels; id++ {
		d := kernelTable[id]
		m, ok := kt.MethodByName(d.Method)
		if !ok || d.Method == "Name" || d.Method == "Close" {
			t.Errorf("descriptor %d names %q, not a kernel method", id, d.Method)
			continue
		}
		if d.Poisonable && (m.Type.NumOut() != 1 || m.Type.Out(0).Kind() != reflect.Float64) {
			t.Errorf("%s is marked poisonable but does not return a float64", d.Method)
		}
		seen[d.Method]++
		if d.Name != "" && d.Traffic == nil {
			t.Errorf("%s is profiled but has no traffic formula", d.Method)
		}
	}
	for i := 0; i < kt.NumMethod(); i++ {
		name := kt.Method(i).Name
		if name == "Name" || name == "Close" {
			continue
		}
		if seen[name] != 1 {
			t.Errorf("method %s has %d descriptors, want 1", name, seen[name])
		}
	}
}

// recorder is a Kernels whose every kernel call lands in last and returns
// fixed results.
type recorder struct {
	Forwarder
	last Call
}

func (r *recorder) Name() string { return "recorder" }
func (r *recorder) Close()       {}

// TestForwarderApplyRoundTrip: a call made on a Forwarder reaches the same
// method of the port its intercept applies it to, with the same arguments,
// and the port's result comes back to the caller — for every kernel.
func TestForwarderApplyRoundTrip(t *testing.T) {
	rec := &recorder{}
	rec.Forwarder = Forward(func(c *Call) {
		rec.last = *c
		c.Value, c.Totals, c.Err = 7, Totals{Mass: 7}, errStub
		if c.ID == KFetchField {
			c.Data = []float64{7}
		}
	})
	var outer Call
	fwd := &recorder{}
	fwd.Forwarder = Forward(func(c *Call) {
		outer = *c
		c.Apply(rec)
	})
	mesh := &grid.Mesh{Nx: 3, Ny: 5}
	arg := map[reflect.Type]any{
		reflect.TypeOf((*grid.Mesh)(nil)):        mesh,
		reflect.TypeOf([]config.State(nil)):      []config.State{{Index: 9}},
		reflect.TypeOf([]FieldID(nil)):           []FieldID{FieldP, FieldZ},
		reflect.TypeOf(0):                        2,
		reflect.TypeOf(FieldID(0)):               FieldSD,
		reflect.TypeOf([]float64(nil)):           []float64{1, 2},
		reflect.TypeOf(config.Coefficient(0)):    config.Coefficient(1),
		reflect.TypeOf(config.Preconditioner(0)): config.PrecondJacBlock,
		reflect.TypeOf(true):                     true,
	}
	for id := KernelID(0); id < numKernels; id++ {
		m := reflect.ValueOf(Kernels(fwd)).MethodByName(kernelTable[id].Method)
		var args []reflect.Value
		for i := 0; i < m.Type().NumIn(); i++ {
			in := m.Type().In(i)
			if in.Kind() == reflect.Float64 {
				args = append(args, reflect.ValueOf(0.25*float64(i+1)))
				continue
			}
			args = append(args, reflect.ValueOf(arg[in]))
		}
		rec.last = Call{}
		out := m.Call(args)
		if outer.ID != id || !reflect.DeepEqual(rec.last, outer) {
			t.Errorf("%s: port saw %+v, caller sent %+v", kernelTable[id].Method, rec.last, outer)
		}
		if len(out) == 1 && out[0].IsZero() {
			t.Errorf("%s: result %v did not come back", kernelTable[id].Method, out[0])
		}
	}
}
