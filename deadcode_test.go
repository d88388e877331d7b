package bandslim_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachExempt names the declarations the scan reports but that stay on
// purpose, each with its reason.
var reachExempt = map[string]string{
	"nand.Array.Payloads": "the only view of held payload bytes; the host-memory tests in ftl, vlog and lsm read it",
	"bench.Table.Cell":    "one figure value by row and column; the figure tests here and the root benchmarks both read it",
	"bench.Table.Column":  "one figure curve by column name; the figure-shape tests read it beside Cell",
	"nand.Array.clock":    "benchmark/ladder.go passes nand.New a clock; the parameter and its field go with a change to that harness",

	"bandslim.ConfigError":              "the typed class of a rejected setting; callers match Open's error with errors.As",
	"bandslim.ErrIteratorInvalidated":   "the typed end of an iterator whose snapshot compaction freed; callers match it with errors.Is",
	"bandslim.IsMedia":                  "the typed class of an unrecovered NAND media error; callers branch on it",
	"bandslim.IsNoSpace":                "the typed class of a full device; callers branch on it",
	"bandslim.IsTransient":              "the typed class of a transfer error that outlived the retry policy; callers branch on it",
	"device.IdentifyData.BufferEntries": "a field of the identify page the device encodes and the driver decodes",
}

// TestInternalHasNoTestOnlyCode fails on any declaration that no consumer
// reaches. It type-checks the non-test files of this module and of
// benchmark/ (which compiles against internal/), example_test.go as a package
// of its own, and the standard library from source, then walks the
// references out from the consumers: every package outside package bandslim
// and internal/, and the Example functions.
//
// The nodes are package bandslim's declarations (its API names among them:
// its top-level names and the exported methods and fields of every module
// type that API exposes) and, under internal/, every function, method,
// unexported struct field and metrics.Counter field. A package-level variable
// is reached only when reached code reads it, and a field or counter only
// where something reads it: assignment targets, ++/--, composite-literal keys
// and a counter's Inc and Add are writes. A type declaration owns the names it
// references. What an exempt declaration uses counts as reached. A method that
// satisfies an interface is reached when that interface's method is, or
// always, for an interface declared outside the scanned packages.
func TestInternalHasNoTestOnlyCode(t *testing.T) {
	s := newReachScan(t, "bandslim")
	s.load("bandslim", ".")
	s.load("bandslim/benchmark", "benchmark")
	s.link()
	// An exemption keeps what its declaration uses, too.
	kept := map[types.Object]bool{}
	for obj, name := range s.candidates {
		if _, exempt := reachExempt[name]; exempt {
			s.mark(s.edges[obj], kept)
		}
	}

	var dead []string
	exempted := map[string]bool{}
	for obj, name := range s.candidates {
		_, exempt := reachExempt[name]
		switch {
		case exempt && s.live[obj]:
			t.Errorf("exemption %s: a consumer reaches it; drop the exemption", name)
		case exempt:
			exempted[name] = true
		case !s.live[obj] && !kept[obj]:
			if s.api[obj] {
				name += " [API]"
			}
			dead = append(dead, name+" ("+s.fset.Position(obj.Pos()).String()+")")
		}
	}
	for name := range reachExempt {
		if !exempted[name] {
			t.Errorf("exemption %s: no unreached declaration by that name; drop the exemption", name)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d declarations no consumer reaches; delete them, give them a consumer, or list them in reachExempt with a reason:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

// TestReachScanFixture runs the scan over testdata/reachscan, where every
// declaration says by its name whether the scan must report it: those named
// dead, and no others.
func TestReachScanFixture(t *testing.T) {
	s := newReachScan(t, "fixture")
	s.load("fixture", filepath.Join("testdata", "reachscan"))
	s.link()
	names := map[string]bool{}
	for _, name := range s.candidates {
		names[name] = true
	}
	for _, name := range []string{"x.Stats.liveField", "x.Stats.deadField", "x.Series.Parts", "fixture.DeadHolder.Held", "fixture.DeadHeld"} {
		if !names[name] {
			t.Errorf("%s is not a candidate", name)
		}
	}
	for obj, name := range s.candidates {
		if dead := strings.Contains(strings.ToLower(name), "dead"); dead == s.live[obj] {
			t.Errorf("%s: reached = %v, want %v", name, s.live[obj], !dead)
		}
	}
}

// reachScan is the loaded, type-checked tree and its reference graph.
type reachScan struct {
	t        *testing.T
	module   string // path of the module's root package, whose API is scanned
	internal string // module + "/internal/"
	fset     *token.FileSet
	std      types.Importer
	dirs     map[string]string // import path -> directory
	pkgs     map[string]*types.Package

	files map[*types.Package][]*ast.File
	infos map[*types.Package]*types.Info
	// examples is example_test.go, type-checked as its own package; its
	// Example functions are roots.
	examples *types.Package

	candidates map[types.Object]string // scanned declarations -> pkg.Recv.Name
	api        map[types.Object]bool   // the API names among them
	vars       map[types.Object]bool   // package-level variables that are nodes but no candidates
	edges      map[types.Object][]types.Object
	live       map[types.Object]bool
}

func newReachScan(t *testing.T, module string) *reachScan {
	// The source importer would run cgo for net and os/user; the pure-Go
	// variants declare the same API.
	saved := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	t.Cleanup(func() { build.Default.CgoEnabled = saved })
	fset := token.NewFileSet()
	return &reachScan{
		t:          t,
		module:     module,
		internal:   module + "/internal/",
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		dirs:       map[string]string{},
		pkgs:       map[string]*types.Package{},
		files:      map[*types.Package][]*ast.File{},
		infos:      map[*types.Package]*types.Info{},
		candidates: map[types.Object]string{},
		api:        map[types.Object]bool{},
		vars:       map[types.Object]bool{},
		edges:      map[types.Object][]types.Object{},
		live:       map[types.Object]bool{},
	}
}

// load type-checks every package of the module rooted at root, and the
// root's example_test.go when it has one. Nested modules (benchmark/ inside
// this one) are skipped; load them by their own root.
func (s *reachScan) load(module, root string) {
	var paths []string
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || hasGoMod(dir)) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, dir)
		path := module
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		s.dirs[path] = dir
		paths = append(paths, path)
		return nil
	})
	if err != nil {
		s.t.Fatal(err)
	}
	for _, path := range paths {
		s.Import(path)
	}
	if module != s.module {
		return
	}
	name := filepath.Join(root, "example_test.go")
	if _, err := os.Stat(name); err != nil {
		return
	}
	s.examples = s.check(module+"_test", []string{name})
}

func hasGoMod(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil
}

// Import implements types.Importer: module packages from their non-test
// files, everything else from the standard library's source.
func (s *reachScan) Import(path string) (*types.Package, error) {
	dir, ok := s.dirs[path]
	if !ok {
		return s.std.Import(path)
	}
	if pkg, ok := s.pkgs[path]; ok {
		return pkg, nil
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		if _, none := err.(*build.NoGoError); none {
			return nil, err
		}
		s.t.Fatalf("%s: %v", dir, err)
	}
	var names []string
	for _, name := range bp.GoFiles {
		names = append(names, filepath.Join(dir, name))
	}
	pkg := s.check(path, names)
	s.pkgs[path] = pkg
	return pkg, nil
}

// check parses and type-checks the named files as package path.
func (s *reachScan) check(path string, names []string) *types.Package {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(s.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			s.t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(path, s.fset, files, info)
	if err != nil {
		s.t.Fatalf("type-check %s: %v", path, err)
	}
	s.files[pkg] = files
	s.infos[pkg] = info
	return pkg
}

// scanned reports whether pkg's declarations are nodes: the module's root
// package and everything under internal/.
func (s *reachScan) scanned(pkg *types.Package) bool {
	return pkg.Path() == s.module || strings.HasPrefix(pkg.Path(), s.internal)
}

// link finds the candidates, records who references whom, and marks what the
// consumers reach.
func (s *reachScan) link() {
	for pkg, info := range s.infos {
		if s.scanned(pkg) {
			s.collect(pkg, info)
		}
	}
	// The exported fields of the internal types the API hands out are API
	// names too.
	for _, obj := range s.exported() {
		if _, ok := s.candidates[obj]; !ok {
			s.candidates[obj] = s.short(obj.Pkg()) + "." + s.structName(obj.Pkg(), obj.(*types.Var)) + "." + obj.Name()
		}
		s.api[obj] = true
	}
	var roots []types.Object
	for pkg := range s.infos {
		roots = append(roots, s.references(pkg)...)
	}
	roots = append(roots, s.satisfactions()...)
	s.mark(roots, s.live)
}

// mark adds to reached every node the roots lead to.
func (s *reachScan) mark(roots []types.Object, reached map[types.Object]bool) {
	roots = append([]types.Object(nil), roots...)
	for len(roots) > 0 {
		obj := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if reached[obj] {
			continue
		}
		reached[obj] = true
		roots = append(roots, s.edges[obj]...)
	}
}

// short names a scanned package: the module's root by its path, an internal
// package by its path below internal/.
func (s *reachScan) short(pkg *types.Package) string {
	return strings.TrimPrefix(pkg.Path(), s.internal)
}

// collect names every function, method, interface method, Counter field and
// unexported struct field that pkg declares, and notes its package-level
// variables. In the module's root package every top-level name and every
// field is a candidate too, but an unexported variable is only a node.
func (s *reachScan) collect(pkg *types.Package, info *types.Info) {
	short := s.short(pkg)
	root := pkg.Path() == s.module
	for _, obj := range info.Defs {
		switch obj := obj.(type) {
		case *types.Func:
			if obj.Name() == "init" {
				continue
			}
			name := short + "." + obj.Name()
			if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
				name = short + "." + typeName(recv.Type()) + "." + obj.Name()
			}
			s.candidates[obj] = name
		case *types.Var:
			switch {
			case obj.IsField() && (s.isCounter(obj.Type()) || (root || !obj.Exported()) && !obj.Embedded() && obj.Name() != "_"):
				s.candidates[obj] = short + "." + s.structName(pkg, obj) + "." + obj.Name()
			case obj.Parent() == pkg.Scope() && root && obj.Exported():
				s.candidates[obj] = short + "." + obj.Name()
			case obj.Parent() == pkg.Scope():
				s.vars[obj] = true
			}
		case *types.TypeName, *types.Const:
			if root && obj.Parent() == pkg.Scope() {
				s.candidates[obj] = short + "." + obj.Name()
			}
		}
	}
}

// typeName names a receiver's type: the named type itself, or the interface
// an interface method belongs to.
func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return "interface"
}

// structName names the package-level type whose struct declares field.
func (s *reachScan) structName(pkg *types.Package, field *types.Var) string {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if st, ok := scope.Lookup(name).Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == field {
					return name
				}
			}
		}
	}
	return "struct"
}

func (s *reachScan) isCounter(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == s.internal+"metrics" && n.Obj().Name() == "Counter"
}

// node reports whether obj is in the reference graph: a candidate or a
// package-level variable of a scanned package.
func (s *reachScan) node(obj types.Object) bool {
	_, ok := s.candidates[obj]
	return ok || s.vars[obj]
}

// references records, for every candidate function body, type declaration and
// package-level variable or constant declaration in pkg, the nodes it uses,
// and returns the nodes used anywhere else — of example_test.go, only inside
// its Example functions.
func (s *reachScan) references(pkg *types.Package) []types.Object {
	info := s.infos[pkg]
	// writes holds the field uses that store rather than load: assignment
	// targets (= and op=), ++/-- operands, composite-literal keys, and Counter
	// fields used as Inc/Add receivers.
	writes := map[*ast.Ident]bool{}
	write := func(id *ast.Ident) {
		if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
			writes[id] = true
		}
	}
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			write(sel.Sel)
		}
	}
	for _, f := range s.files[pkg] {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						target(lhs)
					}
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					write(id)
				}
			case *ast.SelectorExpr:
				if n.Sel.Name != "Inc" && n.Sel.Name != "Add" {
					break
				}
				if field, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok && s.isCounter(info.TypeOf(field)) {
					writes[field.Sel] = true
				}
			}
			return true
		})
	}
	var roots []types.Object
	use := func(n ast.Node, owners []types.Object) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || writes[id] {
				return true
			}
			obj := info.Uses[id]
			if !s.node(obj) {
				return true
			}
			if len(owners) == 0 {
				roots = append(roots, obj)
			}
			for _, owner := range owners {
				if obj != owner {
					s.edges[owner] = append(s.edges[owner], obj)
				}
			}
			return true
		})
	}
	owned := func(ids ...*ast.Ident) []types.Object {
		var owners []types.Object
		for _, id := range ids {
			if obj := info.Defs[id]; s.node(obj) {
				owners = append(owners, obj)
			}
		}
		return owners
	}
	for _, f := range s.files[pkg] {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if pkg != s.examples || strings.HasPrefix(decl.Name.Name, "Example") {
					use(decl, owned(decl.Name))
				}
			case *ast.GenDecl:
				if pkg == s.examples {
					continue
				}
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						use(spec, owned(spec.Names...))
					case *ast.TypeSpec:
						use(spec, owned(spec.Name))
					default:
						use(spec, nil)
					}
				}
			}
		}
	}
	return roots
}

// exported returns the API names of the module's root package: its exported
// top-level names and the exported methods and fields of every module type
// its API hands users, following aliases, fields, signatures and element
// types.
func (s *reachScan) exported() []types.Object {
	api := s.pkgs[s.module]
	if api == nil {
		return nil
	}
	var names []types.Object
	seen := map[*types.Named]bool{}
	var visit func(types.Type)
	visit = func(t types.Type) {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			if seen[t] || t.Obj().Pkg() == nil || !strings.HasPrefix(t.Obj().Pkg().Path()+"/", s.module+"/") {
				return
			}
			seen[t] = true
			var recv types.Type = t
			if !types.IsInterface(t) {
				recv = types.NewPointer(t)
			}
			ms := types.NewMethodSet(recv)
			for i := 0; i < ms.Len(); i++ {
				if m := ms.At(i).Obj(); m.Exported() {
					names = append(names, m)
					visit(m.Type())
				}
			}
			visit(t.Underlying())
		case *types.Pointer:
			visit(t.Elem())
		case *types.Slice:
			visit(t.Elem())
		case *types.Array:
			visit(t.Elem())
		case *types.Chan:
			visit(t.Elem())
		case *types.Map:
			visit(t.Key())
			visit(t.Elem())
		case *types.Signature:
			for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					visit(tuple.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				f := t.Field(i)
				if f.Exported() && !f.Embedded() {
					names = append(names, f)
				}
				if f.Exported() || f.Embedded() {
					visit(f.Type())
				}
			}
		}
	}
	scope := api.Scope()
	for _, name := range scope.Names() {
		if obj := scope.Lookup(name); obj.Exported() {
			names = append(names, obj)
			visit(obj.Type())
		}
	}
	return names
}

// satisfactions links each interface method to the methods that implement it
// on module types, and returns the implementations of interfaces declared
// outside the scanned packages, which the standard library or a consumer may
// call.
func (s *reachScan) satisfactions() []types.Object {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for pkg, info := range s.infos {
		walk(pkg)
		for _, tv := range info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	var roots []types.Object
	for pkg := range s.infos {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			for _, it := range ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					impl, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
					if _, ok := s.candidates[impl]; !ok || impl == m {
						continue
					}
					if _, ok := s.candidates[m]; ok {
						s.edges[m] = append(s.edges[m], impl)
					} else {
						roots = append(roots, impl)
					}
				}
			}
		}
	}
	return roots
}
