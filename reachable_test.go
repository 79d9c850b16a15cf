package stochroute

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"stochroute/internal/israce"
)

// reachAllow is the gate's allowlist: declarations that stay under
// internal/ although nothing the rule counts reaches them. Every entry
// counts as a root, so what it alone uses stays too. An empty decl
// names the whole package.
var reachAllow = []struct{ pkg, decl, reason string }{
	{"internal/osm", "", "the paper's real-data input path; parked in ROADMAP until an extract is in the repository"},
	{"internal/traj", "World.EdgeMarginal", "analytic truth of the generator; reference implementation tests compare against"},
	{"internal/traj", "World.EdgeMarginalAt", "analytic truth per departure slice; reference implementation"},
	{"internal/traj", "World.PairModeJoint", "analytic truth of the pair dependence; reference implementation"},
	{"internal/traj", "World.IsDependentVertex", "analytic truth of which intersections couple; reference implementation"},
	{"internal/ml", "Network.Infer", "the batch forward pass; reference implementation InferRow is compared against"},
}

// reachDeferred is the rule's backlog, not an allowlist: declarations
// the rule condemns that this tree still holds, because each is the
// subject of an own-package test the test floor pins by name and one PR
// may retire only a few pinned tests. They are not roots, so what only
// they use is listed too. An entry that is gone, or reached again,
// fails the gate until it leaves the list; the list only shrinks.
var reachDeferred = map[string][]string{
	"internal/hist": {"Wasserstein1", "Hist.Scale", "Hist.Rebucket", "Hist.Mode", "Hist.SampleValue", "Hist.Entropy", "Hist.ExpectedOvershoot", "Hist.ConditionalValueAtRisk", "Hist.OnTimeThenEarliest"},
}

// TestInternalReachable is the membership rule for non-test code under
// internal/: a declaration stays only while a binary (cmd/*,
// examples/*), the exported facade of package stochroute, the bench/
// harness or another package's tests can reach it. internal/ cannot be
// imported from outside the module, so what only a package's own tests
// reach has no possible consumer.
//
// A method counts as reached when reached code selects it, or when its
// receiver type is reached and implements an interface (of the module
// or of an imported standard package) that declares it. A const block
// is one declaration. Blank declarations (`var _ I = (*T)(nil)`) are
// assertions, neither roots nor findings.
func TestInternalReachable(t *testing.T) {
	if israce.Enabled {
		t.Skip("type-checks the standard library from source; the race build only makes that slower, not different")
	}
	if testing.Short() {
		t.Skip("type-checks the standard library from source (a few seconds)")
	}
	r := newReach(t)
	r.loadModule()
	r.rootBinariesAndFacade()
	r.rootTestsOfOtherPackages()
	r.rootBench()
	r.rootAllowlist()
	r.propagate()

	deferred := make(map[string]bool)
	for pkg, names := range reachDeferred {
		for _, name := range names {
			deferred[pkg+" "+name] = true
		}
	}
	backlog := len(deferred)
	var findings []string
	for _, d := range r.order {
		if d.reached || !strings.HasPrefix(d.pkg, "internal/") {
			continue
		}
		if key := d.pkg + " " + d.name; deferred[key] {
			delete(deferred, key)
			continue
		}
		at := r.fset.Position(d.pos)
		file, _ := filepath.Rel(r.root, at.Filename)
		findings = append(findings, fmt.Sprintf("%s %s %s:%d", d.kind, d.name, file, at.Line))
	}
	t.Logf("allowlist: %d entries; deferred backlog: %d declarations", len(reachAllow), backlog)
	if len(findings) > 0 {
		t.Errorf("%d declarations under internal/ are reachable only from their own package's tests — delete them with those tests, or use them:\n%s",
			len(findings), strings.Join(findings, "\n"))
	}
	for key := range deferred {
		t.Errorf("reachDeferred lists %q, which is gone or reached again; remove the entry", key)
	}
}

const reachModule = "stochroute"

// reachDecl is one top-level declaration: a func, a method, a type, a
// var spec, or a whole const block.
type reachDecl struct {
	pkg      string // directory relative to the module root, "" for the root package
	kind     string
	name     string // Type.Method for methods
	exported bool   // every identifier naming it is; for a const block, any
	pos      token.Pos
	node     ast.Node
	reached  bool
}

type reachPkg struct {
	rel        string
	files      []*ast.File // non-test, build constraints honoured
	tests      []*ast.File // _test.go of the same package
	xtests     []*ast.File // _test.go of package <name>_test
	name       string
	types      *types.Package
	checking   bool
	importPath string
}

type reach struct {
	t      *testing.T
	root   string
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*reachPkg // by import path
	info   *types.Info          // canonical check of the non-test files
	decls  map[token.Pos]*reachDecl
	order  []*reachDecl
	ifaces []*types.Interface
	queue  []*reachDecl
	// override substitutes a package with in-package tests compiled in,
	// for the external tests of the same directory.
	override map[string]*types.Package
}

func newReach(t *testing.T) *reach {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	return &reach{
		t: t, root: root, fset: fset,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  make(map[string]*reachPkg),
		info:  &types.Info{Uses: make(map[*ast.Ident]types.Object), Types: make(map[ast.Expr]types.TypeAndValue)},
		decls: make(map[token.Pos]*reachDecl),
	}
}

// Import implements types.Importer: module packages are checked from
// the parsed files, everything else by the source importer.
func (r *reach) Import(path string) (*types.Package, error) {
	if p := r.override[path]; p != nil {
		return p, nil
	}
	if p := r.pkgs[path]; p != nil {
		return r.check(p)
	}
	return r.std.Import(path)
}

// parseDir parses dir's Go files that match the build context.
func (r *reach) parseDir(dir string) (files, tests, xtests []*ast.File, name string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		r.t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(r.fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			r.t.Fatal(err)
		}
		switch {
		case !strings.HasSuffix(e.Name(), "_test.go"):
			files = append(files, f)
			name = f.Name.Name
		case strings.HasSuffix(f.Name.Name, "_test"):
			xtests = append(xtests, f)
		default:
			tests = append(tests, f)
		}
	}
	return files, tests, xtests, name
}

// loadModule parses and type-checks every package of the module but
// bench/ (its own module, handled by rootBench) and indexes the
// declarations.
func (r *reach) loadModule() {
	err := filepath.WalkDir(r.root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(r.root, path)
		if base := d.Name(); rel != "." && (strings.HasPrefix(base, ".") || base == "testdata" || rel == "bench") {
			return filepath.SkipDir
		}
		files, tests, xtests, name := r.parseDir(path)
		if len(files) == 0 {
			return nil
		}
		p := &reachPkg{files: files, tests: tests, xtests: xtests, name: name, importPath: reachModule}
		if rel != "." {
			p.rel = filepath.ToSlash(rel)
			p.importPath += "/" + p.rel
		}
		r.pkgs[p.importPath] = p
		return nil
	})
	if err != nil {
		r.t.Fatal(err)
	}
	paths := make([]string, 0, len(r.pkgs))
	for path := range r.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		p := r.pkgs[path]
		if _, err := r.check(p); err != nil {
			r.t.Fatalf("type-check %s: %v", path, err)
		}
		r.index(p)
	}
	r.collectInterfaces()
}

func (r *reach) check(p *reachPkg) (*types.Package, error) {
	if p.types != nil {
		return p.types, nil
	}
	if p.checking {
		return nil, fmt.Errorf("import cycle through %s", p.importPath)
	}
	p.checking = true
	conf := types.Config{Importer: r}
	tp, err := conf.Check(p.importPath, r.fset, p.files, r.info)
	p.types = tp
	return tp, err
}

// index records p's top-level declarations.
func (r *reach) index(p *reachPkg) {
	add := func(kind, name string, node ast.Node, idents ...*ast.Ident) {
		d := &reachDecl{pkg: p.rel, kind: kind, name: name, pos: idents[0].Pos(), node: node}
		for _, id := range idents {
			r.decls[id.Pos()] = d
			d.exported = d.exported || id.IsExported()
		}
		r.order = append(r.order, d)
	}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add("func", decl.Name.Name, decl, decl.Name)
				} else {
					recv := recvName(decl.Recv.List[0].Type)
					add("method", recv+"."+decl.Name.Name, decl, decl.Name)
					r.order[len(r.order)-1].exported = decl.Name.IsExported() && ast.IsExported(recv)
				}
			case *ast.GenDecl:
				if decl.Tok == token.CONST {
					var names []*ast.Ident
					for _, s := range decl.Specs {
						for _, id := range s.(*ast.ValueSpec).Names {
							if id.Name != "_" {
								names = append(names, id)
							}
						}
					}
					if len(names) > 0 {
						add("const", names[0].Name, decl, names...)
					}
					continue
				}
				for _, s := range decl.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add("type", s.Name.Name, s, s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.Name != "_" {
								add("var", id.Name, s, id)
							}
						}
					}
				}
			}
		}
	}
}

func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

// collectInterfaces gathers every interface a method could be called
// through: those written in module code (named or literal), the named
// ones of each imported standard package, and error.
func (r *reach) collectInterfaces() {
	seen := make(map[*types.Interface]bool)
	add := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			r.ifaces = append(r.ifaces, it)
		}
	}
	errorType := types.Universe.Lookup("error").Type()
	add(errorType)
	// errors.Is and errors.As find Unwrap through an interface literal
	// inside a function body, which the importer does not check.
	unwrap := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errorType)), false)
	add(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", unwrap)}, nil).Complete())
	for e, tv := range r.info.Types {
		if _, ok := e.(*ast.InterfaceType); ok {
			add(tv.Type)
		}
	}
	stdSeen := make(map[*types.Package]bool)
	for _, p := range r.pkgs {
		for _, imp := range p.types.Imports() {
			if stdSeen[imp] || r.pkgs[imp.Path()] != nil {
				continue
			}
			stdSeen[imp] = true
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
						add(named)
					}
				}
			}
		}
	}
}

func (r *reach) mark(pos token.Pos) {
	if d := r.decls[pos]; d != nil && !d.reached {
		d.reached = true
		r.queue = append(r.queue, d)
	}
}

// markUses marks every module declaration the identifiers under node
// denote; keep filters the objects that count.
func (r *reach) markUses(info *types.Info, node ast.Node, keep func(types.Object) bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || obj.Pkg() == nil || (keep != nil && !keep(obj)) {
			return true
		}
		// A method or field of an instantiated generic type is its own
		// object; the declaration is the origin's.
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		r.mark(obj.Pos())
		return true
	})
}

// rootBinariesAndFacade marks main and init of every package, and the
// exported declarations of package stochroute.
func (r *reach) rootBinariesAndFacade() {
	for _, d := range r.order {
		switch {
		case d.kind == "func" && d.name == "init",
			d.kind == "func" && d.name == "main" && r.pkgs[importPathOf(d.pkg)].name == "main":
			r.mark(d.pos)
		case d.pkg == "" && d.exported:
			r.mark(d.pos)
		}
	}
}

func importPathOf(rel string) string {
	if rel == "" {
		return reachModule
	}
	return reachModule + "/" + rel
}

// rootTestsOfOtherPackages type-checks every package together with its
// tests and marks what the test files use of OTHER packages.
func (r *reach) rootTestsOfOtherPackages() {
	for _, p := range r.pkgs {
		if len(p.tests)+len(p.xtests) == 0 {
			continue
		}
		foreign := func(obj types.Object) bool {
			return strings.TrimSuffix(obj.Pkg().Path(), "_test") != p.importPath
		}
		info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
		conf := types.Config{Importer: r}
		withTests, err := conf.Check(p.importPath, r.fset, append(append([]*ast.File(nil), p.files...), p.tests...), info)
		if err != nil {
			r.t.Fatalf("type-check %s with its tests: %v", p.importPath, err)
		}
		for _, f := range p.tests {
			r.markUses(info, f, foreign)
		}
		if len(p.xtests) > 0 {
			r.override = map[string]*types.Package{p.importPath: withTests}
			_, err := conf.Check(p.importPath+"_test", r.fset, p.xtests, info)
			r.override = nil
			if err != nil {
				// An external test that also imports a dependant of its
				// package sees two views of one type here: go test
				// rebuilds the dependant against the package with its
				// tests, this importer does not. The plain package
				// serves any such test that uses nothing test-only.
				info = &types.Info{Uses: make(map[*ast.Ident]types.Object)}
				_, err = conf.Check(p.importPath+"_test", r.fset, p.xtests, info)
			}
			if err != nil {
				r.t.Fatalf("type-check %s_test: %v", p.importPath, err)
			}
			for _, f := range p.xtests {
				r.markUses(info, f, foreign)
			}
		}
	}
}

// rootBench marks every module symbol the bench/ harness references.
// bench/ is a module of its own; its files are parsed and checked here
// against this tree's packages, not built.
func (r *reach) rootBench() {
	files, tests, xtests, _ := r.parseDir(filepath.Join(r.root, "bench"))
	all := append(append(files, tests...), xtests...)
	if len(all) == 0 {
		r.t.Fatal("bench/ has no Go files; the harness is one of the rule's roots")
	}
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
	conf := types.Config{Importer: r}
	if _, err := conf.Check(reachModule+"/bench", r.fset, all, info); err != nil {
		r.t.Fatalf("type-check bench/: %v", err)
	}
	for _, f := range all {
		r.markUses(info, f, nil)
	}
}

func (r *reach) rootAllowlist() {
	for _, a := range reachAllow {
		hit := false
		for _, d := range r.order {
			if d.pkg == a.pkg && (a.decl == "" || d.name == a.decl) {
				r.mark(d.pos)
				hit = true
			}
		}
		if !hit {
			r.t.Errorf("allowlist entry %s %q matches no declaration; remove it", a.pkg, a.decl)
		}
	}
}

// propagate closes the reached set over uses and interface
// satisfaction.
func (r *reach) propagate() {
	for len(r.queue) > 0 {
		d := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		r.markUses(r.info, d.node, nil)
		if d.kind == "type" {
			r.markInterfaceMethods(d)
		}
	}
}

// markInterfaceMethods marks the methods through which the reached type
// d satisfies any known interface, promoted ones included.
func (r *reach) markInterfaceMethods(d *reachDecl) {
	tn, ok := r.pkgs[importPathOf(d.pkg)].types.Scope().Lookup(d.name).(*types.TypeName)
	if !ok {
		return
	}
	named, ok := tn.Type().(*types.Named)
	if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
		return
	}
	ptr := types.NewPointer(named)
	mset := types.NewMethodSet(ptr)
	if mset.Len() == 0 {
		return
	}
	for _, it := range r.ifaces {
		if !types.Implements(ptr, it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
				r.mark(sel.Obj().(*types.Func).Origin().Pos())
			}
		}
	}
}
