package analysis

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
)

// Loader parses and type-checks the module's packages using only the
// standard library (go/parser + go/types), keeping the module at zero
// external dependencies. Module-internal imports resolve recursively from
// source; standard-library imports come from compiled export data, with a
// from-source fallback for toolchains that ship none.
type Loader struct {
	// ModuleRoot is the directory containing go.mod.
	ModuleRoot string
	// ModulePath is the module path declared in go.mod.
	ModulePath string
	// Fset positions every parsed file; findings render through it.
	Fset *token.FileSet

	pkgs    map[string]*Package // keyed by import path
	loading map[string]bool     // import-cycle guard
	std     types.Importer
	stdSrc  types.Importer
}

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path; Dir the directory it was loaded from.
	Path string
	Dir  string
	// ModulePath identifies the enclosing module, so analyzers can tell
	// module-internal types and sentinels from foreign ones.
	ModulePath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// NewLoader finds the enclosing module of startDir and returns a loader
// rooted there.
func NewLoader(startDir string) (*Loader, error) {
	dir, err := filepath.Abs(startDir)
	if err != nil {
		return nil, err
	}
	for {
		modFile := filepath.Join(dir, "go.mod")
		if data, err := os.ReadFile(modFile); err == nil {
			modPath := modulePathOf(string(data))
			if modPath == "" {
				return nil, fmt.Errorf("analysis: no module directive in %s", modFile)
			}
			return &Loader{
				ModuleRoot: dir,
				ModulePath: modPath,
				Fset:       token.NewFileSet(),
				pkgs:       make(map[string]*Package),
				loading:    make(map[string]bool),
			}, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", startDir)
		}
		dir = parent
	}
}

// modulePathOf extracts the module path from go.mod content.
func modulePathOf(mod string) string {
	for _, line := range strings.Split(mod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// LoadAll loads every package in the module (the "./..." pattern), skipping
// testdata, hidden directories, and directories without non-test Go files.
// Packages are returned in import-path order.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if isSourceFile(dir, e) {
			return true
		}
	}
	return false
}

// isSourceFile reports a non-test Go file that the build on this platform
// compiles: a file whose build constraints exclude it is skipped, as the go
// command skips it, so a package may pair per-platform files.
func isSourceFile(dir string, e os.DirEntry) bool {
	name := e.Name()
	if e.IsDir() || !strings.HasSuffix(name, ".go") ||
		strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
		return false
	}
	match, err := build.Default.MatchFile(dir, name)
	return match || err != nil // an unreadable file fails in the parser instead
}

// LoadDir loads the single package in dir (which must live inside the
// module). Test files are excluded: the analyzers guard shipped invariants,
// and fixtures with deliberate violations live under testdata.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("analysis: %s is outside module %s", dir, l.ModuleRoot)
	}
	importPath := l.ModulePath
	if rel != "." {
		importPath += "/" + filepath.ToSlash(rel)
	}
	return l.load(importPath, abs)
}

// load parses and type-checks one package directory, caching by import path.
func (l *Loader) load(importPath, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: reading %s: %w", dir, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if !isSourceFile(dir, e) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(l.Fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error: func(err error) {
			typeErrs = append(typeErrs, err)
		},
	}
	tpkg, _ := conf.Check(importPath, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, typeErrs[0])
	}
	pkg := &Package{
		Path:       importPath,
		Dir:        dir,
		ModulePath: l.ModulePath,
		Fset:       l.Fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// loaderImporter adapts Loader to types.Importer, routing module-internal
// paths through the source loader and everything else to the standard
// importers.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkg, err := l.load(path, filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if l.std == nil {
		l.std = importer.Default()
	}
	tpkg, err := l.std.Import(path)
	if err == nil {
		return tpkg, nil
	}
	// Toolchains without compiled export data: fall back to type-checking
	// the standard library from source.
	if l.stdSrc == nil {
		l.stdSrc = importer.ForCompiler(l.Fset, "source", nil)
	}
	return l.stdSrc.Import(path)
}
