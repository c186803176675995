// Package loading for the lint driver. The loader discovers packages the
// way the go tool does (skipping testdata, vendor, and hidden or
// underscore directories for `...` patterns), parses each package's
// non-test files, and type-checks them with the standard library's source
// importer — no dependency on golang.org/x/tools. Test files are excluded
// on purpose: the invariants guard the measurement pipeline, and tests are
// free to use wall time and ad-hoc RNGs.
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
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the package's import path within the module.
	Path string
	// Dir is the package's directory on disk.
	Dir string
	// Module is the module path from go.mod.
	Module string
	// Fset maps this package's token positions. Packages loaded by the
	// same worker share one file set; packages from different workers do
	// not, so positions must always be resolved through the owning
	// package's Fset.
	Fset *token.FileSet
	// Files are the parsed non-test files, in filename order.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's expression annotations.
	Info *types.Info
}

// maxLoadWorkers caps the automatic worker count: each worker carries its
// own importer universe (a full re-typecheck of the module and the std
// packages it touches), so memory grows linearly with workers and the
// returns diminish past a handful.
const maxLoadWorkers = 4

// LoadWorkers resolves patterns relative to dir and returns the matched
// packages, parsed and type-checked. Patterns may be plain relative
// directories ("./internal/scanner", including paths inside testdata) or
// recursive ("./...", "./internal/..."). Type errors in any matched
// package abort the load: code that does not compile cannot be linted
// truthfully.
//
// workers is the type-checking worker count; workers <= 0 selects
// min(GOMAXPROCS, 4). Each worker owns an
// independent file set and source importer — the std source importer is
// not safe for concurrent use, and sharing one would serialize the pool —
// so identical types in different packages may be distinct types.Object
// values. Analyzers that compare types across packages must compare
// stable strings (qualified names), never object identity. Package order,
// positions, and findings are identical for every worker count.
func LoadWorkers(dir string, patterns []string, workers int) ([]*Package, error) {
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, module, err := findModule(absDir)
	if err != nil {
		return nil, err
	}
	dirs, err := expandPatterns(absDir, patterns)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > maxLoadWorkers {
			workers = maxLoadWorkers
		}
	}
	if workers > len(dirs) {
		workers = len(dirs)
	}

	slots := make([]*Package, len(dirs))
	errs := make([]error, len(dirs))
	if workers <= 1 {
		fset := token.NewFileSet()
		// One shared source importer: packages imported while checking
		// one target are memoized for the rest of the load.
		imp := importer.ForCompiler(fset, "source", nil)
		for i, d := range dirs {
			slots[i], errs[i] = loadDir(fset, imp, root, module, d)
		}
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				fset := token.NewFileSet()
				imp := importer.ForCompiler(fset, "source", nil)
				for i := w; i < len(dirs); i += workers {
					slots[i], errs[i] = loadDir(fset, imp, root, module, dirs[i])
				}
			}(w)
		}
		wg.Wait()
	}
	// First error by directory order, so the reported failure does not
	// depend on worker scheduling.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var pkgs []*Package
	for _, pkg := range slots {
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, module string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// expandPatterns turns the pattern list into a sorted, de-duplicated list
// of candidate package directories.
func expandPatterns(base string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			start := filepath.Join(base, rest)
			err := filepath.WalkDir(start, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				if path != start && skipDir(d.Name()) {
					return filepath.SkipDir
				}
				add(path)
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("lint: expanding %q: %w", pat, err)
			}
			continue
		}
		d := filepath.Join(base, pat)
		if fi, err := os.Stat(d); err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("lint: pattern %q is not a directory", pat)
		}
		add(d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// skipDir reports whether a `...` walk should skip this directory, using
// the go tool's conventions.
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// loadDir parses and type-checks the package in one directory, or returns
// (nil, nil) if the directory holds no non-test Go files.
func loadDir(fset *token.FileSet, imp types.Importer, root, module, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		if strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)

	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}

	path := module
	if rel, err := filepath.Rel(root, dir); err == nil && rel != "." {
		path = module + "/" + filepath.ToSlash(rel)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, fset, files, info)
	if len(typeErrs) > 0 {
		msgs := make([]string, 0, len(typeErrs))
		for _, e := range typeErrs {
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("lint: type-checking %s:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}

	return &Package{
		Path:   path,
		Dir:    dir,
		Module: module,
		Fset:   fset,
		Files:  files,
		Types:  tpkg,
		Info:   info,
	}, nil
}
