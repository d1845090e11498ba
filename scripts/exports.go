//go:build ignore

// Command exports counts the exported functions and methods declared
// under internal/ and calm/ and says how many of them nothing needs
// exported: those no non-test file refers to, and those only files of
// their own package refer to. ROADMAP item 1 asks for the count per PR
// instead of by eye; scripts/check.sh runs this and fails when either
// figure grows past the one recorded there.
//
//	go run scripts/exports.go        # the three counts
//	go run scripts/exports.go -v     # and every identifier behind them
//
// Every package of the module is type-checked from its non-test source
// (go/parser + go/types, the standard library through the source
// importer), so a reference is a resolved use of the object, not a
// matching name. One blind spot remains and is counted apart: a method
// called only through an interface is a use of the interface's method,
// so the concrete method looks unreferenced.
package main

import (
	"flag"
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
)

// module is the module path of go.mod; the counted packages are the
// ones under these two directories of it.
const module = "repro"

var counted = []string{module + "/internal/", module + "/calm"}

// loader type-checks the module's packages on demand, non-test files
// only, and hands everything else to the source importer.
type loader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*pkg
}

type pkg struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path != module && !strings.HasPrefix(path, module+"/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *loader) load(path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(".", strings.TrimPrefix(strings.TrimPrefix(path, module), "/"))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &pkg{info: &types.Info{Uses: make(map[*ast.Ident]types.Object), Defs: make(map[*ast.Ident]types.Object)}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// packageDirs lists the import paths of every directory of the module
// that go/build finds a package in (non-test files the build
// constraints admit, so not this file's directory).
func packageDirs() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if _, err := build.Default.ImportDir(p, 0); err != nil {
			if _, noGo := err.(*build.NoGoError); noGo {
				return nil
			}
			return err
		}
		paths = append(paths, filepath.ToSlash(filepath.Join(module, p)))
		return nil
	})
	return paths, err
}

func isCounted(path string) bool {
	for _, prefix := range counted {
		if strings.HasPrefix(path, prefix) {
			return true
		}
	}
	return false
}

// exportedReceiver reports whether fn is a function, or a method of an
// exported type: a method of an unexported one is reachable only
// through an interface and is not API of its own.
func exportedReceiver(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return true
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Exported()
}

// viaInterface reports whether fn is a method that some interface of
// the module, or error or fmt.Stringer, also names and fn's receiver
// satisfies: a call through that interface would not count as a use.
func viaInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if _, ok := t.(*types.Pointer); !ok {
		t = types.NewPointer(t)
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && types.Implements(t, it) {
				return true
			}
		}
	}
	return false
}

func main() {
	verbose := flag.Bool("v", false, "list the identifiers behind the counts")
	flag.Parse()

	build.Default.CgoEnabled = false // the source importer then needs no C toolchain
	fset := token.NewFileSet()
	l := &loader{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: make(map[string]*pkg)}
	paths, err := packageDirs()
	if err != nil {
		fatal(err)
	}
	for _, path := range paths {
		if _, err := l.load(path); err != nil {
			fatal(err)
		}
	}

	// users[fn] is the set of packages with a non-test use of fn.
	users := make(map[*types.Func]map[string]bool)
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	if fmtPkg, err := l.std.Import("fmt"); err == nil {
		ifaces = append(ifaces, fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface))
	}
	for path, p := range l.pkgs {
		for _, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && isCounted(fn.Pkg().Path()) {
				fn = fn.Origin()
				if users[fn] == nil {
					users[fn] = make(map[string]bool)
				}
				users[fn][path] = true
			}
		}
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}

	var total int
	var unreferenced, packageOnly, maybeIface []string
	for path, p := range l.pkgs {
		if !isCounted(path) {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				if !exportedReceiver(fn) {
					continue
				}
				name := strings.ReplaceAll(fn.FullName(), module+"/", "")
				total++
				switch by := users[fn]; {
				case len(by) == 0:
					unreferenced = append(unreferenced, name)
					if viaInterface(fn, ifaces) {
						maybeIface = append(maybeIface, name)
					}
				case len(by) == 1 && by[path]:
					packageOnly = append(packageOnly, name)
				}
			}
		}
	}

	list := func(title string, names []string) {
		if !*verbose {
			return
		}
		sort.Strings(names)
		fmt.Printf("%s:\n", title)
		for _, n := range names {
			fmt.Printf("  %s\n", n)
		}
	}
	list("no non-test reference", unreferenced)
	list("of those, methods an interface could be calling", maybeIface)
	list("referenced only inside their own package", packageOnly)
	fmt.Printf("exported funcs/methods under internal/ and calm/: %d\n", total)
	fmt.Printf("  with no non-test reference: %d (%d of them are methods some interface names and the receiver satisfies: likely false positives)\n",
		len(unreferenced), len(maybeIface))
	fmt.Printf("  referenced only inside their own package: %d\n", len(packageOnly))
	fmt.Printf("exports: total=%d unreferenced=%d package-only=%d\n", total, len(unreferenced), len(packageOnly))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "exports: %v\n", err)
	os.Exit(1)
}
