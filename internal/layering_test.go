package internal_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// layers is the import graph of the engine's packages: each package under
// internal/ and the internal packages its non-test files may import. A
// package's layer sits below everything that imports it, so the vector
// format stays one leaf's decision (vec imports only seq and sqltypes),
// storage never sees an operator (exec), a plan or the database (core),
// exec never sees a plan or the database, and obs, fault, sqltypes and seq
// import nothing of the engine's.
var layers = map[string][]string{
	"align":     {"fastq", "seq"},
	"blob":      {},
	"btree":     {"fault", "obs", "sqltypes", "storage", "vec"},
	"catalog":   {"seq", "sqltypes", "storage"},
	"consensus": {"seq"},
	"core":      {"blob", "btree", "catalog", "exec", "expr", "fault", "obs", "plan", "sqlparse", "sqltypes", "stats", "storage", "vec", "wal"},
	"dge":       {"fastq", "seq"},
	"exec":      {"expr", "obs", "sqltypes", "vec"},
	"expr":      {"seq", "sqltypes", "vec"},
	"fastq":     {},
	"fault":     {},
	"gen":       {"seq"},
	"gen/lanes": {"align", "dge", "fastq", "gen", "sequencer"},
	"obs":       {},
	"plan":      {"catalog", "exec", "expr", "obs", "sqlparse", "sqltypes", "stats", "storage", "vec"},
	"script":    {"expr", "fastq", "seq", "sqltypes"},
	"seq":       {},
	"sequencer": {"fastq", "seq"},
	"sqlparse":  {},
	"sqltypes":  {},
	"stats":     {"sqltypes"},
	"storage":   {"fault", "obs", "sqltypes", "vec"},
	"udf":       {"catalog", "consensus", "core", "exec", "fastq", "seq", "sqltypes", "vec"},
	"vec":       {"seq", "sqltypes"},
	"wal":       {"fault"},
}

// TestImportLayering parses the imports of every non-test Go file under
// internal/ and fails on an internal import the graph above does not
// allow, or on a package it does not list: a new edge or package is a
// decision to make here, in one place, not a side effect of a change.
func TestImportLayering(t *testing.T) {
	const prefix = "repro/internal/"
	seen := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		allowed, ok := layers[pkg]
		if !ok {
			t.Errorf("%s: package %s is not in the layering table", path, pkg)
			return nil
		}
		seen[pkg] = true
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			dep, ok := strings.CutPrefix(p, prefix)
			if !ok {
				if strings.HasPrefix(p, "repro/") {
					t.Errorf("%s imports %s, outside internal/", path, p)
				}
				continue
			}
			if !slices.Contains(allowed, dep) {
				t.Errorf("%s imports %s: %s may import only %v", path, dep, pkg, allowed)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var gone []string
	for pkg := range layers {
		if !seen[pkg] {
			gone = append(gone, pkg)
		}
	}
	sort.Strings(gone)
	if len(gone) > 0 {
		t.Errorf("the layering table lists packages with no Go files: %v", gone)
	}
}
