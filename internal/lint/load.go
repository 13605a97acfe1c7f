package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one parsed and type-checked (non-test) package of the module,
// as the analyzers read it.
type Package struct {
	Path  string // import path
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// modulePath reads the module path from the go.mod at root.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: read go.mod: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			mod := strings.TrimSpace(rest)
			if unq, err := strconv.Unquote(mod); err == nil {
				mod = unq
			}
			if mod != "" {
				return mod, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", filepath.Join(root, "go.mod"))
}

// loader type-checks the module's packages in dependency order, resolving
// in-module imports from its own results and everything else (the standard
// library) through the source importer.
type loader struct {
	root    string
	module  string
	fset    *token.FileSet
	dirs    map[string]string // import path -> directory
	pkgs    map[string]*Package
	loading map[string]bool
	std     types.ImporterFrom
	stdPkgs map[string]*types.Package
}

// LoadModule parses and type-checks every non-test package under root. Any
// parse, type or import error fails the load. Directories named testdata,
// hidden and _-prefixed directories, and nested modules (a subdirectory with
// its own go.mod) are skipped, matching the go tool's convention.
func LoadModule(root string) ([]*Package, error) {
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	l := newLoader(root, module)
	if err := l.discover(); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.load(p)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	return out, nil
}

// LoadDir parses and type-checks the single package in dir under the given
// import path, resolving all imports through the source importer. Test
// fixtures use it to pose as project packages (the analyzers scope themselves
// by import path).
func LoadDir(dir, importPath string) (*Package, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: resolve %s: %w", dir, err)
	}
	l := newLoader(root, importPath)
	l.dirs[importPath] = root
	return l.load(importPath)
}

func newLoader(root, module string) *loader {
	fset := token.NewFileSet()
	std, _ := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return &loader{
		root:    root,
		module:  module,
		fset:    fset,
		dirs:    make(map[string]string),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
		std:     std,
		stdPkgs: make(map[string]*types.Package),
	}
}

// discover maps every package directory under root to its import path.
func (l *loader) discover() error {
	return filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != l.root {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		if hasGoFiles(path) {
			rel, err := filepath.Rel(l.root, path)
			if err != nil {
				return fmt.Errorf("lint: relativize %s: %w", path, err)
			}
			ip := l.module
			if rel != "." {
				ip = l.module + "/" + filepath.ToSlash(rel)
			}
			l.dirs[ip] = path
		}
		return nil
	})
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && isLintedFile(e.Name()) {
			return true
		}
	}
	return false
}

// isLintedFile reports whether name is a non-test Go source file.
func isLintedFile(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") &&
		!strings.HasPrefix(name, "_")
}

// load type-checks the package at import path p (and, first, its in-module
// dependencies). Returns nil for directories with no linted files.
func (l *loader) load(p string) (*Package, error) {
	if pkg, ok := l.pkgs[p]; ok {
		return pkg, nil
	}
	if l.loading[p] {
		return nil, fmt.Errorf("lint: import cycle through %s", p)
	}
	l.loading[p] = true
	defer func() { l.loading[p] = false }()

	dir := l.dirs[p]
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: read %s: %w", dir, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !isLintedFile(e.Name()) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: &packageImporter{l: l}}
	tpkg, err := conf.Check(p, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", p, err)
	}
	pkg := &Package{Path: p, Fset: l.fset, Files: files, Pkg: tpkg, Info: info}
	l.pkgs[p] = pkg
	return pkg, nil
}

// packageImporter resolves in-module imports from the loader and the rest
// (the standard library) through the source importer.
type packageImporter struct {
	l *loader
}

func (pi *packageImporter) Import(path string) (*types.Package, error) {
	l := pi.l
	if _, inModule := l.dirs[path]; inModule {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	if p, ok := l.stdPkgs[path]; ok {
		return p, nil
	}
	p, err := l.std.ImportFrom(path, l.root, 0)
	if err != nil {
		return nil, err
	}
	l.stdPkgs[path] = p
	return p, nil
}
