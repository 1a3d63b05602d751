package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Module is every package of one Go module, parsed and type-checked.
// Loading is deliberately stdlib-only (go/parser + go/types with a
// source importer), so lhlint needs nothing beyond the toolchain that
// builds the repository.
type Module struct {
	// Root is the absolute directory containing go.mod.
	Root string
	// Path is the module path declared in go.mod.
	Path string
	// Fset maps every parsed position; Diagnostic positions resolve
	// through it.
	Fset *token.FileSet
	// Packages holds every package in the module, sorted by import path.
	Packages []*Package

	byPath   map[string]*Package
	typed    map[string]*types.Package
	checking map[string]bool
	std      types.ImporterFrom
}

// Package is one parsed, type-checked package of the module.
type Package struct {
	// ImportPath is the full import path ("lauberhorn/internal/sim").
	ImportPath string
	// Dir is the package directory relative to the module root ("" for
	// the root package).
	Dir string
	// Files are the non-test source files, sorted by file name.
	Files []*ast.File
	// TestFiles are the package's _test.go files, parsed but not
	// type-checked; the registry analyzer reads declared test names from
	// them.
	TestFiles []*ast.File
	// Types and Info carry the type-checking results for Files.
	Types *types.Package
	Info  *types.Info
}

var moduleLineRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// LoadModule parses and type-checks every package under root, which must
// contain a go.mod. Directories named testdata, hidden directories, and
// _-prefixed directories are skipped, mirroring the go tool.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: %s is not a module root: %w", root, err)
	}
	match := moduleLineRE.FindSubmatch(gomod)
	if match == nil {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", root)
	}
	m := &Module{
		Root:     root,
		Path:     string(match[1]),
		Fset:     token.NewFileSet(),
		byPath:   map[string]*Package{},
		typed:    map[string]*types.Package{},
		checking: map[string]bool{},
	}
	m.std = importer.ForCompiler(m.Fset, "source", nil).(types.ImporterFrom)

	if err := m.discover(); err != nil {
		return nil, err
	}
	for _, pkg := range m.Packages {
		if err := m.typecheck(pkg.ImportPath); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// discover walks the module tree and parses every package's files.
func (m *Module) discover() error {
	err := filepath.WalkDir(m.Root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != m.Root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		return m.parseDir(path)
	})
	if err != nil {
		return err
	}
	sort.Slice(m.Packages, func(i, j int) bool {
		return m.Packages[i].ImportPath < m.Packages[j].ImportPath
	})
	return nil
}

// parseDir parses the package in dir, if any, and records it.
func (m *Module) parseDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil {
		return err
	}
	if rel == "." {
		rel = ""
	}
	pkg := &Package{ImportPath: path.Join(m.Path, filepath.ToSlash(rel)), Dir: filepath.ToSlash(rel)}
	names, err := goFiles(dir, entries)
	if err != nil {
		return err
	}
	for _, name := range names {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		// Positions are recorded root-relative so diagnostics are stable
		// regardless of where lhlint runs.
		label := name
		if rel != "" {
			label = rel + "/" + name
		}
		f, err := parser.ParseFile(m.Fset, label, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("lint: parsing %s: %w", label, err)
		}
		if strings.HasSuffix(name, "_test.go") {
			pkg.TestFiles = append(pkg.TestFiles, f)
		} else {
			pkg.Files = append(pkg.Files, f)
		}
	}
	if len(pkg.Files) == 0 && len(pkg.TestFiles) == 0 {
		return nil
	}
	m.Packages = append(m.Packages, pkg)
	m.byPath[pkg.ImportPath] = pkg
	return nil
}

// goFiles returns the sorted names of the .go files in dir that the go
// tool would build for this host: a file whose name or //go:build line
// excludes the host's GOOS and GOARCH (sum_amd64.go on arm64, say) is
// left out, so per-architecture files that declare the same names do not
// collide.
func goFiles(dir string, entries []fs.DirEntry) ([]string, error) {
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, e.Name())
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// typecheck type-checks the module package with the given import path,
// resolving module-internal imports recursively and standard-library
// imports through the source importer.
func (m *Module) typecheck(importPath string) error {
	pkg := m.byPath[importPath]
	if pkg == nil || pkg.Types != nil || len(pkg.Files) == 0 {
		return nil
	}
	if m.checking[importPath] {
		return fmt.Errorf("lint: import cycle through %s", importPath)
	}
	m.checking[importPath] = true
	defer delete(m.checking, importPath)

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var typeErr error
	conf := types.Config{
		Importer: (*moduleImporter)(m),
		Error: func(err error) {
			if typeErr == nil {
				typeErr = err
			}
		},
	}
	tpkg, err := conf.Check(importPath, m.Fset, pkg.Files, info)
	if typeErr != nil {
		return fmt.Errorf("lint: type-checking %s: %w", importPath, typeErr)
	}
	if err != nil {
		return fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	m.typed[importPath] = tpkg
	return nil
}

// LoadDir parses and type-checks the single package in dir, outside any
// module; the fixture tests use it. Imports resolve through the source
// importer only, so fixtures may use the standard library but not module
// packages. Positions are labeled with the bare file name.
func LoadDir(dir string) (*token.FileSet, *Package, error) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	pkg := &Package{ImportPath: filepath.Base(dir), Dir: filepath.ToSlash(dir)}
	names, err := goFiles(dir, entries)
	if err != nil {
		return nil, nil, err
	}
	for _, name := range names {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, err
		}
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, fmt.Errorf("lint: parsing %s: %w", name, err)
		}
		if strings.HasSuffix(name, "_test.go") {
			pkg.TestFiles = append(pkg.TestFiles, f)
		} else {
			pkg.Files = append(pkg.Files, f)
		}
	}
	if len(pkg.Files) == 0 {
		return nil, nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check(pkg.ImportPath, fset, pkg.Files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("lint: type-checking %s: %w", dir, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	return fset, pkg, nil
}

// moduleImporter resolves imports during type checking: module-internal
// paths re-enter typecheck, everything else goes to the source importer.
type moduleImporter Module

func (mi *moduleImporter) Import(p string) (*types.Package, error) {
	return mi.ImportFrom(p, "", 0)
}

func (mi *moduleImporter) ImportFrom(p, dir string, mode types.ImportMode) (*types.Package, error) {
	m := (*Module)(mi)
	if p == "unsafe" {
		return types.Unsafe, nil
	}
	if p == m.Path || strings.HasPrefix(p, m.Path+"/") {
		if tp, ok := m.typed[p]; ok {
			return tp, nil
		}
		if err := m.typecheck(p); err != nil {
			return nil, err
		}
		tp, ok := m.typed[p]
		if !ok {
			return nil, fmt.Errorf("lint: unknown module package %q", p)
		}
		return tp, nil
	}
	return m.std.ImportFrom(p, dir, mode)
}
