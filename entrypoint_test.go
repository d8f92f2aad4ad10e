package patternfusion_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSingleMiningEntryPoint guards the "one way to mine" rule: the
// registered engine algorithm is the only mining entry point. It parses
// the non-test sources and fails if
//
//   - a miner package registered through internal/engine/all exports a
//     func named Mine* or a type named Options, Result or Config — a
//     parallel per-miner API beside the engine adapter;
//   - the root facade exports a Mine* func other than MineWith;
//   - internal/seq exports Mine — a second sequence miner beside the
//     registered seqfusion.
func TestSingleMiningEntryPoint(t *testing.T) {
	const module = "repro/"
	all := parseDir(t, "internal/engine/all")
	var miners []string
	for _, f := range all {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			miners = append(miners, strings.TrimPrefix(path, module))
		}
	}
	if len(miners) == 0 {
		t.Fatal("internal/engine/all registers no miner packages")
	}
	for _, dir := range miners {
		exported(t, dir, func(kind, name string) {
			switch {
			case kind == "func" && strings.HasPrefix(name, "Mine"):
				t.Errorf("%s exports func %s: mine through its registered engine algorithm instead", dir, name)
			case kind == "type" && (name == "Options" || name == "Result" || name == "Config"):
				t.Errorf("%s exports type %s: use engine.Options and engine.Report instead", dir, name)
			}
		})
	}
	exported(t, ".", func(kind, name string) {
		if kind == "func" && strings.HasPrefix(name, "Mine") && name != "MineWith" {
			t.Errorf("the facade exports func %s: MineWith is its only mining function", name)
		}
	})
	exported(t, "internal/seq", func(kind, name string) {
		if kind == "func" && name == "Mine" {
			t.Error("internal/seq exports Mine: sequences are mined by the registered seqfusion algorithm")
		}
	})
}

// TestRowSpaceSubstrate guards "one TID-set type for row-space sets":
// support sets and every other set of transaction IDs are tidset.Sets.
// It walks the non-test sources and fails if
//
//   - a package other than the item-space miners (internal/carpenter and
//     internal/maximal, whose bitsets range over item IDs) imports
//     internal/bitset;
//   - internal/seq, the pure subsequence algebra, imports any package of
//     this module.
func TestRowSpaceSubstrate(t *testing.T) {
	const module = "repro/"
	itemSpace := map[string]bool{"internal/carpenter": true, "internal/maximal": true}
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
			return filepath.SkipDir
		}
		dir := filepath.ToSlash(path)
		for _, f := range parseDir(t, dir) {
			for _, imp := range f.Imports {
				imported, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					return err
				}
				if imported == module+"internal/bitset" && !itemSpace[dir] {
					t.Errorf("%s imports internal/bitset: row-space sets are tidset.Sets", dir)
				}
				if dir == "internal/seq" && strings.HasPrefix(imported, module) {
					t.Errorf("internal/seq imports %s: it holds only the subsequence algebra", imported)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// exported calls fn for every exported package-level func ("func") and
// type ("type") declared in the non-test Go files of dir. Methods are not
// package-level funcs: an adapter's Mine method is the entry point the
// rule asks for.
func exported(t *testing.T, dir string, fn func(kind, name string)) {
	t.Helper()
	files := parseDir(t, dir)
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					fn("func", d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() {
						fn("type", ts.Name.Name)
					}
				}
			}
		}
	}
}

// parseDir parses the non-test Go files of dir (relative to the module
// root); a directory without any yields none.
func parseDir(t *testing.T, dir string) []*ast.File {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	fset := token.NewFileSet()
	for _, path := range matches {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}
