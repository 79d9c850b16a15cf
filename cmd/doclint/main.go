// Command doclint is the repository's documentation gate: it fails
// (exit 1) when any exported identifier in the given packages lacks a
// doc comment, listing every offender as file:line. CI runs it over
// the packages whose exported surface is a contract for contributors
// (internal/traj, internal/routing, internal/hybrid, internal/httpsvc);
// run it locally the same way:
//
//	go run ./cmd/doclint internal/traj internal/routing internal/hybrid internal/httpsvc
//
// The rules mirror `revive`'s exported check, without the dependency:
//
//   - exported top-level funcs, types, consts and vars need a doc
//     comment;
//   - methods need one when both the method and its receiver type are
//     exported (methods of unexported types are not public surface);
//   - a const/var/type block's doc comment covers every spec in the
//     block, and a per-spec comment covers that spec;
//   - _test.go files are skipped.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: doclint <package-dir> [package-dir...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	var problems []string
	for _, dir := range flag.Args() {
		ps, err := lintDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
		problems = append(problems, ps...)
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Fprintf(os.Stderr, "doclint: %d exported identifiers lack doc comments\n", len(problems))
		os.Exit(1)
	}
}

// lintDir reports every undocumented exported identifier in one
// package directory (non-recursive, tests excluded).
func lintDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var out []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", filepath.ToSlash(p.Filename), p.Line, kind, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Doc != nil || !d.Name.IsExported() {
						continue
					}
					if d.Recv != nil {
						recv := receiverName(d.Recv)
						if !ast.IsExported(recv) {
							continue
						}
						report(d.Pos(), "method", recv+"."+d.Name.Name)
						continue
					}
					report(d.Pos(), "function", d.Name.Name)
				case *ast.GenDecl:
					if d.Doc != nil {
						continue // block doc covers every spec
					}
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
								report(s.Pos(), "type", s.Name.Name)
							}
						case *ast.ValueSpec:
							if s.Doc != nil || s.Comment != nil {
								continue
							}
							for _, name := range s.Names {
								if name.IsExported() {
									kind := "var"
									if d.Tok == token.CONST {
										kind = "const"
									}
									report(name.Pos(), kind, name.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

// receiverName extracts the receiver's type name, unwrapping pointers
// and generic instantiations.
func receiverName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}
