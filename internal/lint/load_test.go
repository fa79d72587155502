package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one type-checked module package: its non-test files and
// the identifier uses the type checker resolved in them.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	Dir        string
	ImportPath string
	GoFiles    []string
	Standard   bool
	Export     string
	DepOnly    bool // a dependency only, not matched by the patterns
	Error      *struct{ Err string }
}

func goList(dir string, args ...string) ([]*listPkg, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", args, err, stderr.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// load discovers the packages matching patterns and their whole
// dependency closure with one `go list -deps -export` call, then
// type-checks the targets. Module packages are parsed and checked
// from source; standard-library dependencies are imported from the
// build cache's export data, falling back to source import when export
// data is unavailable. It returns the targets that have Go sources,
// sorted by import path.
func load(dir string, patterns []string) ([]*Package, error) {
	listed, err := goList(dir, append([]string{"-deps", "-export", "-json=Dir,ImportPath,GoFiles,Standard,Export,DepOnly,Error"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	im := &moduleImporter{
		fset:    fset,
		metas:   map[string]*listPkg{},
		exports: map[string]string{},
		done:    map[string]*Package{},
		loading: map[string]bool{},
	}
	im.std = importer.ForCompiler(fset, "gc", im.lookupExport)
	im.srcFallback = importer.ForCompiler(fset, "source", nil)
	var roots []string
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Standard {
			im.exports[p.ImportPath] = p.Export
			continue
		}
		im.metas[p.ImportPath] = p
		if !p.DepOnly && len(p.GoFiles) > 0 {
			roots = append(roots, p.ImportPath)
		}
	}
	sort.Strings(roots)
	targets := make([]*Package, 0, len(roots))
	for _, path := range roots {
		pkg, err := im.check(path)
		if err != nil {
			return nil, err
		}
		targets = append(targets, pkg)
	}
	return targets, nil
}

// moduleImporter type-checks module packages from source (memoized, so
// shared dependencies have a single *types.Package identity) and
// resolves everything else through gc export data.
type moduleImporter struct {
	fset        *token.FileSet
	metas       map[string]*listPkg
	exports     map[string]string
	done        map[string]*Package
	loading     map[string]bool
	std         types.Importer
	srcFallback types.Importer
}

func (im *moduleImporter) lookupExport(path string) (io.ReadCloser, error) {
	p := im.exports[path]
	if p == "" {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(p)
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := im.done[path]; ok {
		return pkg.Types, nil
	}
	if _, ok := im.metas[path]; ok {
		pkg, err := im.check(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if im.exports[path] != "" {
		return im.std.Import(path)
	}
	return im.srcFallback.Import(path)
}

func (im *moduleImporter) check(path string) (*Package, error) {
	if pkg, ok := im.done[path]; ok {
		return pkg, nil
	}
	meta := im.metas[path]
	if meta == nil {
		return nil, fmt.Errorf("lint: unknown module package %q", path)
	}
	if im.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	im.loading[path] = true
	defer delete(im.loading, path)

	files := make([]*ast.File, 0, len(meta.GoFiles))
	for _, name := range meta.GoFiles {
		f, err := parser.ParseFile(im.fset, filepath.Join(meta.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	cfg := types.Config{Importer: im}
	tpkg, err := cfg.Check(path, im.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, err)
	}
	pkg := &Package{
		Path:  path,
		Fset:  im.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	im.done[path] = pkg
	return pkg, nil
}
