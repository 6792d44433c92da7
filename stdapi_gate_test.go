// TestStdAPIFloor holds the module and bench/ to the standard library of the
// Go release go.mod names. The module says go 1.22 and CI installs Go from
// it, but a newer local toolchain compiles a call to an API added after 1.22
// without complaint (testing.B.Loop, new in 1.24, once slipped in that way),
// and CI then fails to build. So every package of both modules, test files
// included, is type-checked for the host's build context, and every
// standard-library object it uses (function, method, type, field, constant
// or variable) is looked up in $(go env GOROOT)/api/go1.23.txt and
// go1.24.txt, the objects those releases added; any hit fails the test. A
// toolchain that has no such file cannot compile a use of what it lists, so
// a missing file is skipped.
package tealeaf_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// newerAPI lists the API releases after go.mod's go 1.22.
var newerAPI = []string{"go1.23.txt", "go1.24.txt"}

func TestStdAPIFloor(t *testing.T) {
	out, err := exec.Command("go", "env", "GOROOT").Output()
	if err != nil {
		t.Fatalf("go env GOROOT: %v", err)
	}
	added := map[string]string{}
	for _, name := range newerAPI {
		f, err := os.Open(filepath.Join(strings.TrimSpace(string(out)), "api", name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		err = readAPI(f, name, added)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(added) == 0 {
		t.Skip("the toolchain lists no API newer than go 1.22")
	}
	c := newAPIChecker(map[string]string{modulePath: ".", modulePath + "/bench": "bench"})
	if err := c.load(); err != nil {
		t.Fatal(err)
	}
	if err := c.checkAll(); err != nil {
		t.Fatal(err)
	}
	var hits []string
	for key, at := range c.uses {
		if rel, ok := added[key]; ok {
			hits = append(hits, fmt.Sprintf("%s: %s is new in %s", at, key, strings.TrimSuffix(rel, ".txt")))
		}
	}
	sort.Strings(hits)
	for _, h := range hits {
		t.Error(h)
	}
	if len(c.uses) == 0 {
		t.Fatal("no standard-library use was found: the checker saw nothing")
	}
}

// readAPI adds the objects an api/go1.N.txt file lists to added, each keyed
// as apiKey keys a use and mapped to the file's name. A line is one of
//
//	pkg P, func F(...) ...
//	pkg P, method (T) M(...) ...      (or (*T), or T[$0, ...])
//	pkg P, type T struct, F ...       (a field; interface methods alike)
//	pkg P, type T ...                 (const, var alike)
//
// with P optionally followed by a "(goos-goarch)" qualifier.
func readAPI(r io.Reader, name string, added map[string]string) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "pkg ")
		if !ok {
			continue
		}
		pkg, rest, ok := strings.Cut(line, ", ")
		if !ok {
			return fmt.Errorf("%s: unreadable line %q", name, sc.Text())
		}
		pkg, _, _ = strings.Cut(pkg, " ")
		kind, rest, _ := strings.Cut(rest, " ")
		var key string
		switch kind {
		case "func", "const", "var":
			key = pkg + "." + ident(rest)
		case "method":
			recv, m, _ := strings.Cut(strings.TrimPrefix(rest, "("), ") ")
			key = pkg + "." + ident(strings.TrimPrefix(recv, "*")) + "." + ident(m)
		case "type":
			key = pkg + "." + ident(rest)
			if _, member, ok := strings.Cut(rest, ", "); ok {
				key += "." + ident(member)
			}
		default:
			return fmt.Errorf("%s: unknown kind in %q", name, sc.Text())
		}
		added[key] = name
	}
	return sc.Err()
}

// ident is the identifier s starts with.
func ident(s string) string {
	if i := strings.IndexAny(s, " ([,=;"); i >= 0 {
		return s[:i]
	}
	return s
}

// apiChecker type-checks the packages of a set of modules from source, each
// with its in-package test files, the external test packages too, against
// the standard library's export data, and records every standard-library
// object they use by apiKey.
type apiChecker struct {
	fset    *token.FileSet
	modules map[string]string // module path -> directory
	dirs    map[string]*pkgFiles
	checked map[string]*types.Package
	std     types.Importer
	uses    map[string]string // apiKey -> first position using it
	// inspect, when set, sees every package check's files and uses.
	inspect func(files []*ast.File, info *types.Info)
}

// pkgFiles are one directory's parsed files for the host's build context:
// the package's, its in-package test files and its external test package's.
type pkgFiles struct {
	files, inTest, extTest []*ast.File
}

func newAPIChecker(modules map[string]string) *apiChecker {
	return &apiChecker{
		fset: token.NewFileSet(), modules: modules, dirs: map[string]*pkgFiles{},
		checked: map[string]*types.Package{}, uses: map[string]string{},
	}
}

// load parses every package directory of the modules, then binds the
// standard-library importer to the export data of exactly the packages they
// import, found with one go list call.
func (c *apiChecker) load() error {
	imports := map[string]bool{}
	for mod, root := range c.modules {
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if base := d.Name(); dir != root && (base == "testdata" || base == "out" || strings.HasPrefix(base, ".") ||
				c.isModuleRoot(dir)) {
				return filepath.SkipDir
			}
			path := mod
			if dir != root {
				path += "/" + filepath.ToSlash(strings.TrimPrefix(dir, root+string(filepath.Separator)))
			}
			p, err := c.parseDir(path, dir)
			if p != nil {
				c.dirs[path] = p
				for _, f := range append(append(p.files, p.inTest...), p.extTest...) {
					for _, im := range f.Imports {
						imports[strings.Trim(im.Path.Value, `"`)] = true
					}
				}
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	var std []string
	for im := range imports {
		if c.module(im) == "" && im != "C" && im != "unsafe" {
			std = append(std, im)
		}
	}
	args := append([]string{"list", "-export", "-f", "{{.ImportPath}}={{.Export}}"}, std...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return fmt.Errorf("go list -export: %v", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "=")
		export[path] = file
	}
	c.std = importer.ForCompiler(c.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := export[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
	return nil
}

// isModuleRoot reports whether dir is the root of another listed module.
func (c *apiChecker) isModuleRoot(dir string) bool {
	for _, root := range c.modules {
		if filepath.Clean(dir) == filepath.Clean(root) {
			return true
		}
	}
	return false
}

// module returns the listed module an import path belongs to, or "".
func (c *apiChecker) module(path string) string {
	best := ""
	for mod := range c.modules {
		if (path == mod || strings.HasPrefix(path, mod+"/")) && len(mod) > len(best) {
			best = mod
		}
	}
	return best
}

// parseDir parses dir's Go files that match the host's build context,
// splitting off the external test package; nil if there are none.
func (c *apiChecker) parseDir(path, dir string) (*pkgFiles, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &pkgFiles{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			p.files = append(p.files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			p.extTest = append(p.extTest, f)
		default:
			p.inTest = append(p.inTest, f)
		}
	}
	if len(p.files)+len(p.inTest)+len(p.extTest) == 0 {
		return nil, nil
	}
	return p, nil
}

// Import implements types.Importer: a module package from source, anything
// else from the standard library's export data.
func (c *apiChecker) Import(path string) (*types.Package, error) {
	if c.module(path) == "" {
		return c.std.Import(path)
	}
	if pkg, ok := c.checked[path]; ok {
		return pkg, nil
	}
	p := c.dirs[path]
	if p == nil || len(p.files) == 0 {
		return nil, fmt.Errorf("no package %s in the checked modules", path)
	}
	pkg, err := c.check(path, p.files)
	c.checked[path] = pkg
	return pkg, err
}

// check type-checks one package and records its standard-library uses.
func (c *apiChecker) check(path string, files []*ast.File) (*types.Package, error) {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		return nil, err
	}
	if c.inspect != nil {
		c.inspect(files, info)
	}
	for id, obj := range info.Uses {
		if obj.Pkg() == nil || c.module(obj.Pkg().Path()) != "" {
			continue
		}
		if key := apiKey(obj); key != "" {
			if _, seen := c.uses[key]; !seen {
				c.uses[key] = c.fset.Position(id.Pos()).String()
			}
		}
	}
	return pkg, nil
}

// checkAll checks every package, with and without its in-package test
// files, and every external test package. As go test builds them, a package
// with in-package test files, every module package it imports and its
// external test package are checked afresh, all seeing that package with
// its test files.
func (c *apiChecker) checkAll() error {
	for path, p := range c.dirs {
		pkg, err := c.Import(path)
		if err != nil && len(p.files) > 0 {
			return err
		}
		checked := c.checked
		if len(p.inTest) > 0 {
			c.checked = map[string]*types.Package{}
			if pkg, err = c.check(path, append(append([]*ast.File(nil), p.files...), p.inTest...)); err != nil {
				return err
			}
			c.checked[path] = pkg
		}
		if len(p.extTest) > 0 {
			_, err = c.check(path+"_test", p.extTest)
		}
		c.checked = checked
		if err != nil {
			return err
		}
	}
	return nil
}

// apiKey names a standard-library object as readAPI keys the API files:
// P.Name for a package-level object, P.T.M for a method or interface method
// of T, and P.T.F for a field of struct type T; "" for anything else (a
// local, a parameter, a field of an unnamed struct).
func apiKey(obj types.Object) string {
	pkg := obj.Pkg().Path()
	switch o := obj.(type) {
	case *types.Func:
		recv := o.Type().(*types.Signature).Recv()
		if recv == nil {
			return pkg + "." + o.Name()
		}
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return pkg + "." + n.Obj().Name() + "." + o.Name()
		}
		return ""
	case *types.Var:
		if !o.IsField() {
			if o.Parent() == o.Pkg().Scope() {
				return pkg + "." + o.Name()
			}
			return ""
		}
		scope := o.Pkg().Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if st.Field(i) == o.Origin() {
						return pkg + "." + name + "." + o.Name()
					}
				}
			}
		}
		return ""
	default:
		if obj.Parent() == obj.Pkg().Scope() {
			return pkg + "." + obj.Name()
		}
		return ""
	}
}
