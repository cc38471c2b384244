package glign

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryPackageHasDoc holds the doc.go convention: every package of the
// module (root, cmd/*, examples/*, internal/*) carries a package comment on
// at least one of its non-test files, so `go doc` always gives an
// orientation paragraph. The nested benchmark module, testdata trees and
// hidden directories (the benchmark's build directory among them) are not
// part of the module's packages.
func TestEveryPackageHasDoc(t *testing.T) {
	documented := map[string]bool{} // package directory -> has a package comment
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || path == "benchmark") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		documented[dir] = documented[dir] || (f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(documented) < 2 {
		t.Fatalf("found %d package directories; the walk did not see the module", len(documented))
	}
	var missing []string
	for dir, ok := range documented {
		if !ok {
			missing = append(missing, dir)
		}
	}
	sort.Strings(missing)
	for _, dir := range missing {
		t.Errorf("package in %s has no package comment (add a doc.go)", dir)
	}
}
