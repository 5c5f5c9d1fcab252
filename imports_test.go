package autoscale

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode"
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

// TestDocumentedFlagsExist guards the docs against flags a command no longer
// has: every -flag token on an autoscale-{exp,policy,serve,sim} command line
// in the user-facing docs must name a flag the command's non-test .go files
// define. A command line is a line of a fenced or indented code block (with
// backslash-continued lines joined) or an inline code span; it runs from the
// command to the end of the line, the first shell separator or a comment, and
// text inside $(...) belongs to another program.
func TestDocumentedFlagsExist(t *testing.T) {
	defRe := regexp.MustCompile(`\b(?:flag|fs)\.[A-Z]\w*\("([^"]+)"`)
	defined := map[string]map[string]bool{} // command -> flag names
	cmds, err := filepath.Glob("cmd/autoscale-*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range cmds {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range defRe.FindAllStringSubmatch(string(src), -1) {
				names[m[1]] = true
			}
		}
		defined[filepath.Base(dir)] = names
	}
	if len(defined) != 4 {
		t.Fatalf("found %d autoscale-* commands, want 4", len(defined))
	}

	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}
	err = filepath.WalkDir("examples", func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(p, ".md") {
			docs = append(docs, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	subshell := regexp.MustCompile(`\$\([^)]*\)`)
	checked := 0
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range commandLines(string(text)) {
			fields := strings.Fields(subshell.ReplaceAllString(line, ""))
			for i := 0; i < len(fields); i++ {
				cmd := path.Base(strings.TrimSuffix(fields[i], "/"))
				names, ok := defined[cmd]
				// A command runs bare or under go run; go test, vet and build
				// of its package take their own flags.
				if !ok || (cmd != fields[i] && (i == 0 || fields[i-1] != "run")) {
					continue
				}
				for i++; i < len(fields) && !strings.ContainsAny(fields[i], "|&;>#"); i++ {
					tok := strings.TrimLeft(fields[i], "-")
					if tok == fields[i] || tok == "" || !unicode.IsLetter(rune(tok[0])) {
						continue
					}
					name, _, _ := strings.Cut(tok, "=")
					name = strings.TrimRight(name, "`'\",.)")
					checked++
					if !names[name] {
						t.Errorf("%s: %s has no flag -%s: %s", doc, cmd, name, line)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("checked no documented flag; is the scan rooted at the module?")
	}
}

// commandLines returns a Markdown document's code: each line of a fenced or
// indented block, with backslash-continued lines joined, and each inline
// code span outside the blocks.
func commandLines(doc string) []string {
	var out []string
	inFence, cont := false, ""
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if !inFence && !strings.HasPrefix(line, "\t") && !strings.HasPrefix(line, "    ") {
			spans := strings.Split(line, "`")
			for i := 1; i < len(spans)-1; i += 2 {
				out = append(out, spans[i])
			}
			continue
		}
		if body, ok := strings.CutSuffix(strings.TrimRight(line, " "), "\\"); ok {
			cont += body + " "
			continue
		}
		out = append(out, cont+line)
		cont = ""
	}
	return out
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
