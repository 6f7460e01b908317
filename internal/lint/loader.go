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
	"strings"
)

// loadedPkg is one type-checked package of the analyzed tree.
type loadedPkg struct {
	rel        string // module-relative dir, "." for the root package
	importPath string // modulePath + "/" + rel ("" when no go.mod)
	files      []*ast.File
	types      *types.Package
	info       *types.Info
}

// pass is the per-package context handed to each per-package rule.
type pass struct {
	*loadedPkg
	report reportFunc
}

// load discovers, parses, and type-checks every package under cfg.Dir
// matching cfg.Patterns, in deterministic dependency order. Test files
// (_test.go) are exempt from fairlint: tests may use wall time and ad-hoc
// randomness freely, because they never feed artifacts.
func load(cfg *Config) ([]*loadedPkg, *token.FileSet, error) {
	root, err := filepath.Abs(cfg.Dir)
	if err != nil {
		return nil, nil, err
	}
	modPath := readModulePath(filepath.Join(root, "go.mod"))

	rels, err := discover(root, cfg.Patterns)
	if err != nil {
		return nil, nil, err
	}

	fset := token.NewFileSet()
	byRel := make(map[string]*loadedPkg, len(rels))
	for _, rel := range rels {
		files, err := parseDir(fset, filepath.Join(root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, nil, err
		}
		if len(files) == 0 {
			continue
		}
		ip := rel
		if modPath != "" {
			if rel == "." {
				ip = modPath
			} else {
				ip = modPath + "/" + rel
			}
		}
		byRel[rel] = &loadedPkg{rel: rel, importPath: ip, files: files}
	}

	order, err := topoOrder(byRel, modPath)
	if err != nil {
		return nil, nil, err
	}

	imp := &chainImporter{
		done: map[string]*types.Package{},
		src:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
	var out []*loadedPkg
	for _, rel := range order {
		pkg := byRel[rel]
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(pkg.importPath, fset, pkg.files, info)
		if err != nil {
			return nil, nil, fmt.Errorf("typecheck %s: %w", pkg.rel, err)
		}
		pkg.types = tp
		pkg.info = info
		if pkg.importPath != "" && pkg.importPath != pkg.rel {
			imp.done[pkg.importPath] = tp
		}
		out = append(out, pkg)
	}
	return out, fset, nil
}

// chainImporter serves already-checked module packages from cache and
// defers everything else (the standard library, unmatched module
// packages) to the stdlib source importer.
type chainImporter struct {
	done map[string]*types.Package
	src  types.ImporterFrom
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

func (c *chainImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := c.done[path]; ok {
		return p, nil
	}
	return c.src.ImportFrom(path, dir, mode)
}

// discover walks root for package dirs (dirs holding at least one
// non-test .go file), returning sorted module-relative slash paths that
// match at least one pattern. Dirs named testdata or vendor, and dirs
// starting with "." or "_", are skipped, mirroring the go tool.
func discover(root string, patterns []string) ([]string, error) {
	var rels []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if !matchAnyPattern(rel, patterns) {
			return nil
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if isLintableFile(e.Name()) {
				rels = append(rels, rel)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(rels)
	return rels, nil
}

func isLintableFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

func matchAnyPattern(rel string, patterns []string) bool {
	for _, p := range patterns {
		if matchPattern(rel, p) {
			return true
		}
	}
	return false
}

// matchPattern implements go-style package patterns relative to the
// module root: "./..." matches everything, "./x/..." a subtree,
// "./x" (or "x") exactly one package dir, "." the root package.
func matchPattern(rel, pat string) bool {
	pat = strings.TrimPrefix(pat, "./")
	pat = strings.TrimSuffix(pat, "/")
	if pat == "..." {
		return true
	}
	if base, ok := strings.CutSuffix(pat, "/..."); ok {
		return rel == base || strings.HasPrefix(rel, base+"/")
	}
	if pat == "" || pat == "." {
		return rel == "."
	}
	return rel == pat
}

// parseDir parses every non-test .go file of dir in sorted order, with
// comments (needed for //fairlint:allow directives).
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() && isLintableFile(e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// topoOrder returns package rel paths in dependency order (imports
// first), alphabetical among independents, so type-checking can cache
// module-internal packages before their importers need them.
func topoOrder(byRel map[string]*loadedPkg, modPath string) ([]string, error) {
	rels := make([]string, 0, len(byRel))
	for rel := range byRel {
		rels = append(rels, rel)
	}
	sort.Strings(rels)

	deps := func(pkg *loadedPkg) []string {
		var out []string
		for _, f := range pkg.files {
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				var rel string
				switch {
				case modPath != "" && path == modPath:
					rel = "."
				case modPath != "" && strings.HasPrefix(path, modPath+"/"):
					rel = strings.TrimPrefix(path, modPath+"/")
				default:
					continue
				}
				if _, ok := byRel[rel]; ok {
					out = append(out, rel)
				}
			}
		}
		sort.Strings(out)
		return out
	}

	const (
		unseen = iota
		visiting
		done
	)
	state := map[string]int{}
	var order []string
	var visit func(rel string) error
	visit = func(rel string) error {
		switch state[rel] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("import cycle through %s", rel)
		}
		state[rel] = visiting
		for _, dep := range deps(byRel[rel]) {
			if dep == rel {
				continue
			}
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[rel] = done
		order = append(order, rel)
		return nil
	}
	for _, rel := range rels {
		if err := visit(rel); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// readModulePath extracts the module path from a go.mod, or "" if the
// file is absent (e.g. a testdata corpus root).
func readModulePath(gomod string) string {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// relFile converts an absolute filename into a slash-separated path
// relative to the analyzed root, keeping output machine-independent.
func relFile(root, filename string) string {
	abs, err := filepath.Abs(root)
	if err == nil {
		if rel, err := filepath.Rel(abs, filename); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(filename)
}
