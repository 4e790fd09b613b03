package lint

import (
	"errors"
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

// A Package is one type-checked package: syntax plus type information.
type Package struct {
	Path  string // import path ("clustersmt/internal/core", or the dir base name in fixture mode)
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Module is the unit the analyzers run over: the target packages named by
// the load patterns plus every in-module dependency they pull in, all
// type-checked against one shared FileSet so object identities agree across
// packages.
type Module struct {
	Root string // module root directory (contains go.mod); "" in fixture mode
	Path string // module path from go.mod; "" in fixture mode
	Fset *token.FileSet

	// Pkgs maps import path to every loaded package; Targets is the subset
	// the patterns matched, in deterministic order.
	Pkgs    map[string]*Package
	Targets []*Package

	// Noalloc records every function and interface method annotated
	// //smtlint:noalloc, across all loaded packages.
	Noalloc map[*types.Func]bool

	allows    map[allowKey]string // directive position -> reason
	badAllows []token.Position

	goVersion  string
	fixtureDir string // parent of the fixture package dir in LoadDir mode
	std        types.Importer
	loading    map[string]bool
	typeErrs   []error
}

// Load type-checks the module rooted at (or above) dir and returns it with
// the packages matching patterns as targets. Patterns are directory paths
// relative to dir: "./..." or "sub/..." for trees, plain paths for single
// packages — the same shapes the go tool accepts for local packages.
// Standard-library imports are resolved through the toolchain's export data
// (no network, no module cache needed); in-module imports are type-checked
// from source so directive facts exist for every dependency.
func Load(dir string, patterns []string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found at or above %s", abs)
		}
		root = parent
	}
	modPath, goVersion, err := readModFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := newModule()
	m.Root, m.Path, m.goVersion = root, modPath, goVersion

	var dirs []string
	for _, pat := range patterns {
		d, err := expandPattern(abs, pat)
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, d...)
	}
	sort.Strings(dirs)
	for _, d := range dirs {
		rel, err := filepath.Rel(root, d)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("lint: %s is outside module %s", d, root)
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := m.loadPackage(path, d)
		if err != nil {
			return nil, err
		}
		m.Targets = append(m.Targets, pkg)
	}
	return m, nil
}

// LoadDir type-checks a single directory as a standalone package — the
// fixture mode used by the analyzer test suites. The package's import path
// is its directory base name, and an import of a bare name resolves to a
// sibling directory of dir if one exists (mirroring analysistest's
// testdata/src layout); everything else is treated as standard library.
func LoadDir(dir string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	m := newModule()
	m.goVersion = "go1.24"
	m.fixtureDir = filepath.Dir(abs)
	pkg, err := m.loadPackage(filepath.Base(abs), abs)
	if err != nil {
		return nil, err
	}
	m.Targets = append(m.Targets, pkg)
	return m, nil
}

func newModule() *Module {
	return &Module{
		Fset:    token.NewFileSet(),
		Pkgs:    map[string]*Package{},
		Noalloc: map[*types.Func]bool{},
		allows:  map[allowKey]string{},
		loading: map[string]bool{},
	}
}

func readModFile(path string) (modPath, goVersion string, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", "", err
	}
	goVersion = "go1.24"
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
		}
		if rest, ok := strings.CutPrefix(line, "go "); ok {
			goVersion = "go" + strings.TrimSpace(rest)
		}
	}
	if modPath == "" {
		return "", "", fmt.Errorf("lint: no module line in %s", path)
	}
	return modPath, goVersion, nil
}

// expandPattern resolves one pattern relative to base into package dirs.
func expandPattern(base, pat string) ([]string, error) {
	recursive := false
	if pat == "..." || strings.HasSuffix(pat, "/...") {
		recursive = true
		pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
	}
	if pat == "" {
		pat = "."
	}
	start := filepath.Join(base, pat)
	if !recursive {
		if !hasGoFiles(start) {
			return nil, fmt.Errorf("lint: no Go files in %s", start)
		}
		return []string{start}, nil
	}
	var dirs []string
	err := filepath.WalkDir(start, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != start && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(p) {
			dirs = append(dirs, p)
		}
		return nil
	})
	return dirs, err
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && isSource(dir, e.Name()) {
			return true
		}
	}
	return false
}

// isSource reports whether n is a non-test Go file of dir that this
// platform builds: file-name suffixes and //go:build lines decide, as for
// the compiler, so platform variants of one function do not collide.
func isSource(dir, n string) bool {
	if !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
		return false
	}
	ok, err := build.Default.MatchFile(dir, n)
	return err == nil && ok
}

// Import implements types.Importer: in-module paths load from source,
// fixture siblings load from disk, anything else defers to the compiler's
// export data.
func (m *Module) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if m.Path != "" && (path == m.Path || strings.HasPrefix(path, m.Path+"/")) {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, m.Path), "/")
		pkg, err := m.loadPackage(path, filepath.Join(m.Root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if m.fixtureDir != "" && !strings.Contains(path, "/") {
		// Fixture mode: a bare import resolves to a sibling fixture
		// directory when one exists.
		sibling := filepath.Join(m.fixtureDir, path)
		if hasGoFiles(sibling) {
			pkg, err := m.loadPackage(path, sibling)
			if err != nil {
				return nil, err
			}
			return pkg.Types, nil
		}
	}
	if m.std == nil {
		m.std = importer.Default()
	}
	return m.std.Import(path)
}

func (m *Module) loadPackage(path, dir string) (*Package, error) {
	if pkg, ok := m.Pkgs[path]; ok {
		return pkg, nil
	}
	if m.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	m.loading[path] = true
	defer delete(m.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !isSource(dir, n) {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f, err := parser.ParseFile(m.Fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	var tcErrs []error
	conf := types.Config{
		Importer:  m,
		GoVersion: m.goVersion,
		Error:     func(err error) { tcErrs = append(tcErrs, err) },
	}
	tpkg, _ := conf.Check(path, m.Fset, files, info)
	if len(tcErrs) > 0 {
		limit := min(len(tcErrs), 5)
		return nil, fmt.Errorf("lint: type errors in %s: %w", path, errors.Join(tcErrs[:limit]...))
	}

	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	m.Pkgs[path] = pkg
	for _, f := range files {
		m.collectDirectives(pkg, f)
	}
	return pkg, nil
}
