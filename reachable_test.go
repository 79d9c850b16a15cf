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
var reachDeferred = map[string][]string{}

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
//
// The facade rule runs first, on the same module load: every exported
// func and method of package stochroute must be reached from a binary,
// the bench/ harness or reachAllow — through code they reach, or
// through an interface a reached type satisfies (the Engine is a
// server.Backend). The facade has importers outside the module, but no
// test of any package is one, so a method only tests call has no
// consumer either.
func TestInternalReachable(t *testing.T) {
	if israce.Enabled {
		t.Skip("type-checks the standard library from source; the race build only makes that slower, not different")
	}
	if testing.Short() {
		t.Skip("type-checks the standard library from source (a few seconds)")
	}
	r := newReach(t)
	r.loadModule()
	r.rootBinaries()
	r.rootBench()
	r.rootAllowlist()
	r.propagate()

	// The facade rule, on the reached set so far. Aliases, constants
	// and vars carry no code and are not checked.
	checked := 0
	var unreached []string
	for _, d := range r.order {
		if d.pkg != "" || !d.exported || (d.kind != "func" && d.kind != "method") {
			continue
		}
		checked++
		if !d.reached {
			at := r.fset.Position(d.pos)
			unreached = append(unreached, fmt.Sprintf("%s %s %s:%d", d.kind, d.name, filepath.Base(at.Filename), at.Line))
		}
	}
	if len(unreached) > 0 {
		t.Errorf("%d exported funcs and methods of package stochroute are reached by no binary, the bench/ harness or the allowlist — delete them with their tests, or use them:\n%s",
			len(unreached), strings.Join(unreached, "\n"))
	}

	r.rootFacade()
	r.rootTestsOfOtherPackages()
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
	t.Logf("allowlist: %d entries; deferred backlog: %d declarations; facade: %d funcs/methods checked, %d unreached", len(reachAllow), backlog, checked, len(unreached))
	if len(findings) > 0 {
		t.Errorf("%d declarations under internal/ are reachable only from their own package's tests — delete them with those tests, or use them:\n%s",
			len(findings), strings.Join(findings, "\n"))
	}
	for key := range deferred {
		t.Errorf("reachDeferred lists %q, which is gone or reached again; remove the entry", key)
	}
}

// knobAllow is the knob gate's allowlist: exported configuration fields
// that stay settable although no writer the rule counts sets them.
var knobAllow = []struct{ pkg, field, reason string }{
	{"internal/hybrid", "EstimatorConfig.Bands", "read from the SRH2 header: the reader sets it inside its own package, from the file"},
	{"internal/hybrid", "EstimatorConfig.CondBuckets", "read from the SRH2 header: the reader sets it inside its own package, from the file"},
}

// knobDeferred is the knob gate's backlog, not an allowlist: fields that
// only other packages' tests set. Each is still a knob those tests turn
// (a short backoff, a small network, a private registry); folding one
// means rewriting those tests. An entry whose field is gone, or that
// gains a writer the rule counts, fails the gate until it leaves the
// list; the list only shrinks.
var knobDeferred = map[string][]string{
	"internal/gateway": {"Config.IngestBackoff", "Config.IngestBackoffCap", "Config.Metrics"},
	"internal/hybrid":  {"Config.MaxBuckets", "EstimatorConfig.Hidden"},
	"internal/ingest":  {"Config.MinRebuildTrajectories", "DriftConfig.MinEdgeObs"},
	"internal/traj":    {"WalkConfig.RouteJitter", "WorldConfig.ModePrior"},
}

// TestConfigFieldsHaveWriters is the rule that every knob has a caller:
// an exported field of a struct type named …Config or …Options under the
// module must be written by non-test code outside its package (cmd/*,
// examples/*, the facade, another internal package) or by the bench/
// harness. A write is a composite-literal key, an assignment or inc/dec,
// or taking the field's address (a flag binding); in a chain a.B.C = v
// both B and C are written. Writes in tests do not count: a field only
// tests set is a constant that keeps its default value, or an unexported
// field its own package's tests may set.
func TestConfigFieldsHaveWriters(t *testing.T) {
	if israce.Enabled {
		t.Skip("type-checks the standard library from source; the race build only makes that slower, not different")
	}
	if testing.Short() {
		t.Skip("type-checks the standard library from source (a few seconds)")
	}
	r := newReach(t)
	r.loadModule()
	written := make(map[*types.Var]bool)
	for _, p := range r.pkgs {
		foreign := func(v *types.Var) bool { return v.Pkg().Path() != p.importPath }
		for _, f := range p.files {
			markFieldWrites(r.info, f, foreign, written)
		}
	}
	benchFiles, benchInfo := r.checkBench()
	for _, f := range benchFiles {
		markFieldWrites(benchInfo, f, nil, written)
	}

	allowed := make(map[string]bool)
	for _, a := range knobAllow {
		allowed[a.pkg+" "+a.field] = true
	}
	deferred := make(map[string]bool)
	for pkg, fields := range knobDeferred {
		for _, field := range fields {
			deferred[pkg+" "+field] = true
		}
	}
	backlog := len(deferred)
	fields := r.configFields()
	var findings []string
	for _, f := range fields {
		switch {
		case allowed[f.key]:
			if written[f.v] {
				t.Errorf("knobAllow lists %q, which a caller the rule counts writes; remove the entry", f.key)
			}
			delete(allowed, f.key)
		case deferred[f.key]:
			if written[f.v] {
				t.Errorf("knobDeferred lists %q, which a caller the rule counts writes; remove the entry", f.key)
			}
			delete(deferred, f.key)
		case !written[f.v]:
			at := r.fset.Position(f.v.Pos())
			file, _ := filepath.Rel(r.root, at.Filename)
			findings = append(findings, fmt.Sprintf("%s %s:%d", f.key, file, at.Line))
		}
	}
	t.Logf("exported config fields: %d; knobAllow: %d entries; knobDeferred backlog: %d fields", len(fields), len(knobAllow), backlog)
	if len(findings) > 0 {
		t.Errorf("%d exported config fields have no writer outside their package's tests — make each a constant that keeps its default value, or an unexported field its own package's tests set:\n%s",
			len(findings), strings.Join(findings, "\n"))
	}
	for key := range allowed {
		t.Errorf("knobAllow lists %q, which is not an exported config field; remove the entry", key)
	}
	for key := range deferred {
		t.Errorf("knobDeferred lists %q, which is not an exported config field; remove the entry", key)
	}
}

// TestMarkFieldWrites holds each kind of write the knob gate counts,
// and a read it does not, on a snippet of its own.
func TestMarkFieldWrites(t *testing.T) {
	const src = `package p

type Inner struct{ Lit, Chained, Indexed, Inc, Addr, Ranged, Read int }

type Pair struct{ A, B int }

type Config struct {
	In   Inner
	List []Inner
	Tail int
}

func f(c *Config, xs []int) int {
	_ = Config{In: Inner{Lit: 1}}
	_ = Pair{1, 2}
	c.In.Chained = 2
	c.List[0].Indexed = 3
	c.In.Inc++
	_ = &c.In.Addr
	for _, c.In.Ranged = range xs {
	}
	return c.In.Read + c.Tail
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object), Types: make(map[ast.Expr]types.TypeAndValue)}
	pkg, err := new(types.Config).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	written := make(map[*types.Var]bool)
	markFieldWrites(info, f, nil, written)
	var got []string
	for _, typ := range []string{"Config", "Inner", "Pair"} {
		st := pkg.Scope().Lookup(typ).Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if written[st.Field(i)] {
				got = append(got, typ+"."+st.Field(i).Name())
			}
		}
	}
	// Read and Tail are only read.
	want := "Config.In Config.List Inner.Lit Inner.Chained Inner.Indexed Inner.Inc Inner.Addr Inner.Ranged Pair.A Pair.B"
	if strings.Join(got, " ") != want {
		t.Errorf("written fields:\n got %s\nwant %s", strings.Join(got, " "), want)
	}
}

type configField struct {
	key string // package directory, then Type.Field
	v   *types.Var
}

// configFields lists the exported fields of the module's struct types
// named …Config or …Options, in package and declaration order. An alias
// is not a type of its own, so its fields are counted once.
func (r *reach) configFields() []configField {
	paths := make([]string, 0, len(r.pkgs))
	for path := range r.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	var out []configField
	for _, path := range paths {
		p := r.pkgs[path]
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if v := st.Field(i); v.Exported() {
					out = append(out, configField{key: p.rel + " " + name + "." + v.Name(), v: v})
				}
			}
		}
	}
	return out
}

// markFieldWrites records in written every struct field the code under
// node writes and keep admits (nil admits all).
func markFieldWrites(info *types.Info, node ast.Node, keep func(*types.Var) bool, written map[*types.Var]bool) {
	credit := func(obj types.Object) {
		if v, ok := obj.(*types.Var); ok && v.IsField() && (keep == nil || keep(v)) {
			written[v.Origin()] = true
		}
	}
	// chain credits every field along a.B[i].C, through parentheses,
	// indirections and indexing.
	chain := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				credit(info.Uses[x.Sel])
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			st, ok := info.Types[n].Type.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						credit(info.Uses[key])
					}
				} else {
					credit(st.Field(i))
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				chain(lhs)
			}
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				chain(n.Key)
				chain(n.Value)
			}
		case *ast.IncDecStmt:
			chain(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				chain(n.X)
			}
		}
		return true
	})
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

// rootBinaries marks main and init of every package.
func (r *reach) rootBinaries() {
	for _, d := range r.order {
		if d.kind == "func" && (d.name == "init" || d.name == "main" && r.pkgs[importPathOf(d.pkg)].name == "main") {
			r.mark(d.pos)
		}
	}
}

// rootFacade marks the exported declarations of package stochroute.
func (r *reach) rootFacade() {
	for _, d := range r.order {
		if d.pkg == "" && d.exported {
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
	all, info := r.checkBench()
	for _, f := range all {
		r.markUses(info, f, nil)
	}
}

// checkBench parses and type-checks every Go file of bench/, tests
// included.
func (r *reach) checkBench() ([]*ast.File, *types.Info) {
	files, tests, xtests, _ := r.parseDir(filepath.Join(r.root, "bench"))
	all := append(append(files, tests...), xtests...)
	if len(all) == 0 {
		r.t.Fatal("bench/ has no Go files; the harness is one of the rule's roots")
	}
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object), Types: make(map[ast.Expr]types.TypeAndValue)}
	conf := types.Config{Importer: r}
	if _, err := conf.Check(reachModule+"/bench", r.fset, all, info); err != nil {
		r.t.Fatalf("type-check bench/: %v", err)
	}
	return all, info
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
