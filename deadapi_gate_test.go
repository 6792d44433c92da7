// TestNoDeadAPI keeps internal/ free of code nothing runs. Every identifier
// declared in a non-test file under internal/ — package-level func, type,
// var and const, method, and struct field, exported or not — must be used
// by a non-test file of the module or of bench/, other than in its own
// declaration or as a method receiver. A test alone keeps nothing alive:
// code only tests call is code to delete with its tests.
//
// Counted as used without a caller, because a use can be invisible to the
// type checker:
//   - a method whose name some interface declares: a named interface or an
//     interface literal of the module's non-test code, a standard-library
//     interface that code names, or one of the interfaces the standard
//     library reaches by dynamic type (error, fmt.Stringer, io.Closer,
//     http.Handler, the json marshalers);
//   - an embedded field, a blank field and a field with a struct tag, which
//     a decoder fills.
//
// Anything else unused must be listed in deadAPIAllowlist with one of the
// reasons allowedReasons names; a listed identifier that is used, or that
// does not exist, fails the test too, so the list cannot go stale.
package tealeaf_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
	"testing"
)

const (
	modulePath       = "github.com/warwick-hpsc/tealeaf-go"
	deadAPIAllowlist = "deadapi_allowlist.txt"
)

// dynamicMethods are the methods the standard library calls through an
// interface the module's code need not name.
var dynamicMethods = []string{"Error", "String", "Close", "ServeHTTP", "MarshalJSON", "UnmarshalJSON"}

// allowedReasons are the reasons an allowlist line may give; "observes "
// takes the behaviour a test of something else needs the identifier to see.
var allowedReasons = []string{"base API", "test-helper package", "errors chain", "observes "}

func TestNoDeadAPI(t *testing.T) {
	c := newAPIChecker(map[string]string{modulePath: ".", modulePath + "/bench": "bench"})
	if err := c.load(); err != nil {
		t.Fatal(err)
	}
	d := newDeadAPI()
	c.inspect = d.inspect
	for path, p := range c.dirs {
		if len(p.files) > 0 {
			if _, err := c.Import(path); err != nil {
				t.Fatal(err)
			}
		}
	}
	declared := map[string]bool{}
	var dead []string
	for path, pkg := range c.checked {
		rel, ok := strings.CutPrefix(path, modulePath+"/internal/")
		if !ok {
			continue
		}
		for key, obj := range declarations(rel, pkg) {
			declared[key] = true
			if !d.used(obj) {
				dead = append(dead, key)
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("no internal/ declaration was found: the checker saw nothing")
	}
	allow, err := readAllowlist(deadAPIAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(dead)
	for _, key := range dead {
		if allow[key] == "" {
			t.Errorf("%s is declared in non-test code under internal/ but nothing outside tests uses it: delete it, or list it in %s with its reason", key, deadAPIAllowlist)
		}
		delete(allow, key)
	}
	var stale []string
	for key := range allow {
		stale = append(stale, key)
	}
	sort.Strings(stale)
	for _, key := range stale {
		if declared[key] {
			t.Errorf("%s: %s is used outside tests; drop its line", deadAPIAllowlist, key)
		} else {
			t.Errorf("%s: %s is not declared under internal/; drop its line", deadAPIAllowlist, key)
		}
	}
}

// deadAPI collects, over every non-test package check, the uses of module
// objects and the method names interfaces declare.
type deadAPI struct {
	uses    map[token.Pos]bool       // declaring positions of used objects
	methods map[string]bool          // method names some interface declares
	spans   map[token.Pos]ast.Node   // declaring position -> its declaration
	recv    map[*ast.File][]ast.Node // receiver lists, whose uses do not count
}

func newDeadAPI() *deadAPI {
	d := &deadAPI{uses: map[token.Pos]bool{}, methods: map[string]bool{},
		spans: map[token.Pos]ast.Node{}, recv: map[*ast.File][]ast.Node{}}
	for _, m := range dynamicMethods {
		d.methods[m] = true
	}
	return d
}

// inspect records one package's declaration spans, interface methods and
// uses of module objects.
func (d *deadAPI) inspect(files []*ast.File, info *types.Info) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				d.spans[n.Name.Pos()] = n
				if n.Recv != nil {
					d.recv[f] = append(d.recv[f], n.Recv)
				}
			case *ast.TypeSpec:
				d.spans[n.Name.Pos()] = n
			case *ast.ValueSpec:
				for _, name := range n.Names {
					d.spans[name.Pos()] = n
				}
			case *ast.Field:
				for _, name := range n.Names {
					d.spans[name.Pos()] = n
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						d.methods[name.Name] = true
					}
				}
			}
			return true
		})
	}
	for id, obj := range info.Uses {
		if obj.Pkg() == nil {
			continue
		}
		if !strings.HasPrefix(obj.Pkg().Path(), modulePath) {
			if tn, ok := obj.(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumMethods(); i++ {
						d.methods[it.Method(i).Name()] = true
					}
				}
			}
			continue
		}
		pos := origin(obj).Pos()
		if span := d.spans[pos]; span != nil && span.Pos() <= id.Pos() && id.Pos() < span.End() {
			continue
		}
		if d.inReceiver(files, id.Pos()) {
			continue
		}
		d.uses[pos] = true
	}
}

// inReceiver reports whether pos lies in a method's receiver list.
func (d *deadAPI) inReceiver(files []*ast.File, pos token.Pos) bool {
	for _, f := range files {
		if f.Pos() <= pos && pos < f.End() {
			for _, r := range d.recv[f] {
				if r.Pos() <= pos && pos < r.End() {
					return true
				}
			}
		}
	}
	return false
}

// used reports whether obj counts as used.
func (d *deadAPI) used(obj types.Object) bool {
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil && d.methods[fn.Name()] {
		return true
	}
	return d.uses[obj.Pos()]
}

// declarations names every identifier pkg declares that the gate checks,
// keyed as rel.Name, rel.Type.Method or rel.Type.Field.
func declarations(rel string, pkg *types.Package) map[string]types.Object {
	out := map[string]types.Object{}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if name == "_" || name == "init" {
			continue
		}
		key := rel + "." + name
		out[key] = obj
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		for i := 0; i < named.NumMethods(); i++ {
			out[key+"."+named.Method(i).Name()] = named.Method(i)
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			fields(key, st, out)
		}
	}
	return out
}

// fields adds st's fields under prefix, and those of the unnamed struct
// types they have, leaving out the ones counted as used without a caller.
func fields(prefix string, st *types.Struct, out map[string]types.Object) {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Embedded() || f.Name() == "_" || st.Tag(i) != "" {
			continue
		}
		out[prefix+"."+f.Name()] = f
		if inner, ok := f.Type().(*types.Struct); ok {
			fields(prefix+"."+f.Name(), inner, out)
		}
	}
}

// origin is the generic declaration an instantiated object comes from.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// readAllowlist reads identifier-reason lines; # starts a comment.
func readAllowlist(name string) (map[string]string, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line, _, _ := strings.Cut(sc.Text(), "#")
		key, reason, _ := strings.Cut(strings.TrimSpace(line), " ")
		if key == "" {
			continue
		}
		reason = strings.TrimSpace(reason)
		if !validReason(reason) {
			return nil, fmt.Errorf("%s:%d: %s has reason %q, not one of %q", name, n, key, reason, allowedReasons)
		}
		if allow[key] != "" {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", name, n, key)
		}
		allow[key] = reason
	}
	return allow, sc.Err()
}

func validReason(r string) bool {
	for _, ok := range allowedReasons {
		if r == ok || strings.HasSuffix(ok, " ") && strings.HasPrefix(r, ok) && len(r) > len(ok) {
			return true
		}
	}
	return false
}
