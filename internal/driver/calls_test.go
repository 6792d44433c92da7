package driver

import (
	"reflect"
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/config"
	"github.com/warwick-hpsc/tealeaf-go/internal/grid"
)

// kernelMethods are the Kernels methods other than Name and Close.
func kernelMethods() []reflect.Method {
	kt := reflect.TypeOf((*Kernels)(nil)).Elem()
	var out []reflect.Method
	for i := 0; i < kt.NumMethod(); i++ {
		if m := kt.Method(i); m.Name != "Name" && m.Name != "Close" {
			out = append(out, m)
		}
	}
	return out
}

// call calls method m of k with an argument of every parameter type, the
// float64 ones numbered 0.25, 0.5, ..., and returns its results.
func call(k Kernels, m reflect.Method) []reflect.Value {
	arg := map[reflect.Type]any{
		reflect.TypeOf((*grid.Mesh)(nil)):        &grid.Mesh{Nx: 3, Ny: 5},
		reflect.TypeOf([]config.State(nil)):      []config.State{{Index: 9}},
		reflect.TypeOf([]FieldID(nil)):           []FieldID{FieldP, FieldZ},
		reflect.TypeOf(0):                        2,
		reflect.TypeOf(FieldID(0)):               FieldSD,
		reflect.TypeOf([]float64(nil)):           []float64{1, 2},
		reflect.TypeOf(config.Coefficient(0)):    config.Coefficient(1),
		reflect.TypeOf(config.Preconditioner(0)): config.PrecondJacBlock,
		reflect.TypeOf(true):                     true,
	}
	var args []reflect.Value
	for i := 0; i < m.Type.NumIn(); i++ {
		in := m.Type.In(i)
		if in.Kind() == reflect.Float64 {
			args = append(args, reflect.ValueOf(0.25*float64(i+1)))
			continue
		}
		args = append(args, reflect.ValueOf(arg[in]))
	}
	return reflect.ValueOf(k).MethodByName(m.Name).Call(args)
}

// TestKernelTableComplete: every Kernels method except Name and Close makes
// the Call of exactly one descriptor, every descriptor is some method's, and
// only kernels returning a float64 (the result Call.Value carries) are
// marked poisonable.
func TestKernelTableComplete(t *testing.T) {
	var id KernelID
	k := &recorder{}
	k.Forwarder = Forward(func(c *Call) { id = c.ID })
	seen := map[KernelID]string{}
	for _, m := range kernelMethods() {
		id = numKernels
		call(k, m)
		if id == numKernels {
			t.Errorf("%s makes no Call", m.Name)
			continue
		}
		if prev, dup := seen[id]; dup {
			t.Errorf("%s and %s both make call %d", prev, m.Name, id)
		}
		seen[id] = m.Name
		if kernelTable[id].Poisonable && (m.Type.NumOut() != 1 || m.Type.Out(0).Kind() != reflect.Float64) {
			t.Errorf("%s is marked poisonable but does not return a float64", m.Name)
		}
	}
	for id, d := range kernelTable {
		if _, ok := seen[KernelID(id)]; !ok {
			t.Errorf("descriptor %d (%q) is no Kernels method's", id, d.Name)
		}
		if d.Name != "" && d.Traffic == nil {
			t.Errorf("%s is profiled but has no traffic formula", d.Name)
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
	for _, m := range kernelMethods() {
		outer, rec.last = Call{}, Call{}
		out := call(fwd, m)
		if !reflect.DeepEqual(rec.last, outer) {
			t.Errorf("%s: port saw %+v, caller sent %+v", m.Name, rec.last, outer)
		}
		if len(out) == 1 && out[0].IsZero() {
			t.Errorf("%s: result %v did not come back", m.Name, out[0])
		}
	}
}
