package autoscale

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryInternalPackageIsImported guards against orphaned packages: every
// internal/... package must be imported by at least one non-test .go file
// outside its own directory. The bench module does not count as an importer
// (it is its own module and tier-1 never builds it), so a package only the
// harness reaches is still an orphan here.
func TestEveryInternalPackageIsImported(t *testing.T) {
	const module = "autoscale"
	internal := map[string]bool{}             // import path -> true
	importers := map[string]map[string]bool{} // import path -> importing dirs
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		if dir == "internal" || strings.HasPrefix(dir, "internal/") {
			internal[path.Join(module, dir)] = true
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, spec := range f.Imports {
			ip, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			if importers[ip] == nil {
				importers[ip] = map[string]bool{}
			}
			importers[ip][path.Join(module, dir)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(internal) == 0 {
		t.Fatal("found no internal packages; is the walk rooted at the module?")
	}
	var orphans []string
	for pkg := range internal {
		imported := false
		for dir := range importers[pkg] {
			if dir != pkg {
				imported = true
				break
			}
		}
		if !imported {
			orphans = append(orphans, pkg)
		}
	}
	sort.Strings(orphans)
	for _, pkg := range orphans {
		t.Errorf("%s is imported by no non-test file outside its own directory: delete it or wire it in", pkg)
	}
}

// TestEveryInternalExportIsReached guards against production code that only
// its own package's tests call: every exported func and method declared in a
// non-test file under internal/ must be named, its own declaration aside, by a
// non-test file in the repo or by a test file in another directory. Unlike
// the package guard, bench/ counts as a caller here: the benchmark is built
// from this tree and what it calls must stay. Methods on unexported receivers are
// skipped: interfaces reach them (xoshiro's Int63 is rand.Source's). Matching
// is by name only, so a name used anywhere else keeps every declaration of it.
func TestEveryInternalExportIsReached(t *testing.T) {
	type decl struct{ file, dir, name string }
	var decls []decl
	namedBy := map[string]map[string]bool{} // identifier -> files naming it
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		dir := path.Dir(p)
		internal := strings.HasPrefix(dir, "internal/") && !strings.HasSuffix(p, "_test.go")
		var declared *ast.Ident // a declaration's own name is not a use of it
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared = n.Name
				if internal && n.Name.IsExported() && exportedRecv(n.Recv) {
					decls = append(decls, decl{p, dir, n.Name.Name})
				}
			case *ast.Ident:
				if n != declared {
					if namedBy[n.Name] == nil {
						namedBy[n.Name] = map[string]bool{}
					}
					namedBy[n.Name][p] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no internal exports; is the walk rooted at the module?")
	}
	var unreached []string
	for _, d := range decls {
		reached := false
		for file := range namedBy[d.name] {
			if !strings.HasSuffix(file, "_test.go") || path.Dir(file) != d.dir {
				reached = true
				break
			}
		}
		if !reached {
			unreached = append(unreached, d.file+": "+d.name)
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s is named by no non-test file and no other package's tests: delete it or wire it in", u)
	}
}

// exportedRecv reports whether a func is a plain function or a method whose
// receiver's base type is exported.
func exportedRecv(recv *ast.FieldList) bool {
	if recv == nil || len(recv.List) == 0 {
		return true
	}
	typ := recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}

// TestEveryCommandIsDocumented guards the docs against drift in the tool
// set: every directory under cmd/ must appear as cmd/<name> in both
// README.md and DESIGN.md.
func TestEveryCommandIsDocumented(t *testing.T) {
	cmds, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cmds {
			if c.IsDir() && !strings.Contains(string(text), "cmd/"+c.Name()) {
				t.Errorf("%s does not mention cmd/%s", doc, c.Name())
			}
		}
	}
}

// TestEveryPackageIsInventoried guards DESIGN.md §3 against drift in the
// module set: every internal/ and examples/ directory holding Go files must
// have a row of its own in the §3 inventory tables.
func TestEveryPackageIsInventoried(t *testing.T) {
	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(text)
	start := strings.Index(doc, "\n## 3. ")
	end := strings.Index(doc, "\n## 4. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §3 followed by §4")
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(doc[start:end], "\n") {
		if cell, ok := strings.CutPrefix(line, "| `"); ok {
			if name, _, ok := strings.Cut(cell, "`"); ok {
				rows[name] = true
			}
		}
	}
	dirs := map[string]bool{}
	for _, root := range []string{"internal", "examples"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(p, ".go") {
				dirs[filepath.ToSlash(filepath.Dir(p))] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(dirs) == 0 {
		t.Fatal("found no packages; is the walk rooted at the module?")
	}
	var missing []string
	for dir := range dirs {
		if !rows[dir] {
			missing = append(missing, dir)
		}
	}
	sort.Strings(missing)
	for _, dir := range missing {
		t.Errorf("DESIGN.md §3 has no row for %s", dir)
	}
}
