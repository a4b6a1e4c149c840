package powertcp_test

// The docs gate: CI runs `go test -run TestDocs .` so the front-door
// documentation cannot rot. It enforces five properties:
//
//  1. Every package under internal/ and cmd/ (and the root package)
//     carries a godoc package comment.
//  2. Every Go snippet in README.md parses, and every `powertcp.X`
//     identifier it references is actually exported by the root package.
//  3. Every `go run ./cmd/...` command in README.md, PERF.md or
//     EXPERIMENTS.md points at a real main package, and every cmd/
//     directory is mentioned in the README.
//  4. Every test name a CI step selects with `go test -run '…|…'`, or
//     with `-run "$NAME"` from the workflow's env, exists in a package
//     that step lists.
//  5. Every `go run ./X` command in README.md is run by a CI step, or X
//     has tests of its own: what a reader is told to run, something runs.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// packageDoc reports whether any non-test Go file in dir carries a
// package doc comment, and the package name found.
func packageDoc(t *testing.T, dir string) (documented bool, pkg string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		pkg = f.Name.Name
		if f.Doc != nil && len(strings.TrimSpace(f.Doc.Text())) > 20 {
			return true, pkg
		}
	}
	return false, pkg
}

func TestDocsInternalPackagesHaveGodoc(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 10 {
		t.Fatalf("found only %d internal packages — wrong working directory?", len(dirs))
	}
	cmds, err := filepath.Glob("cmd/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) == 0 {
		t.Fatal("found no cmd packages — wrong working directory?")
	}
	check := append(append(dirs, cmds...), ".")
	for _, dir := range check {
		info, err := os.Stat(dir)
		if err != nil || !info.IsDir() {
			continue
		}
		ok, pkg := packageDoc(t, dir)
		if pkg == "" {
			continue // no Go files (shouldn't happen)
		}
		if !ok {
			t.Errorf("package %s (%s) has no godoc package comment", pkg, dir)
		}
	}
}

// rootExports collects the exported top-level identifiers of the root
// powertcp package.
func rootExports(t *testing.T) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					out[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							out[s.Name.Name] = true
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								out[n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return out
}

var goFence = regexp.MustCompile("(?s)```go\n(.*?)```")

func TestDocsReadmeSnippetsBuild(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	snippets := goFence.FindAllStringSubmatch(string(readme), -1)
	if len(snippets) == 0 {
		t.Fatal("README.md has no Go snippets — the front-door example is gone")
	}
	exports := rootExports(t)
	fset := token.NewFileSet()
	for i, m := range snippets {
		snippet := m[1]
		src := snippet
		if !strings.Contains(snippet, "func ") && !strings.Contains(snippet, "package ") {
			src = "func _() {\n" + snippet + "\n}"
		}
		if !strings.Contains(src, "package ") {
			src = "package readme\n" + src
		}
		f, err := parser.ParseFile(fset, "snippet.go", src, 0)
		if err != nil {
			t.Errorf("README snippet %d does not parse: %v\n%s", i+1, err, snippet)
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			base, ok := sel.X.(*ast.Ident)
			if !ok || base.Name != "powertcp" {
				return true
			}
			if !exports[sel.Sel.Name] {
				t.Errorf("README snippet %d references powertcp.%s, which the root package does not export",
					i+1, sel.Sel.Name)
			}
			return true
		})
	}

	// Shell snippets: every `go run ./cmd/...` target mentioned in the
	// front-door docs must exist.
	goRunRE := regexp.MustCompile(`go run (\./cmd/[a-z]+)`)
	for _, doc := range []string{"README.md", "PERF.md", "EXPERIMENTS.md"} {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range goRunRE.FindAllStringSubmatch(string(body), -1) {
			if _, err := os.Stat(m[1]); err != nil {
				t.Errorf("%s references %s, which does not exist", doc, m[1])
			}
		}
	}

	// The fuzz workflow documentation must point at the real pinned
	// corpus: the directory exists, holds the committed counterexamples,
	// and the README tells readers where to put new ones.
	corpusDir := filepath.Join("internal", "fuzzlab", "testdata", "corpus")
	if !strings.Contains(string(readme), "internal/fuzzlab/testdata/corpus") {
		t.Errorf("README.md never mentions %s — document how shrunk repros get pinned", corpusDir)
	}
	pinned, err := filepath.Glob(filepath.Join(corpusDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pinned) < 5 {
		t.Errorf("pinned corpus %s holds %d specs, want ≥5 — the documented regression gate is hollow", corpusDir, len(pinned))
	}

	// And the reverse: every command under cmd/ must be documented in
	// the README, so new tools (powervet included) stay discoverable.
	cmds, err := filepath.Glob("cmd/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range cmds {
		if !strings.Contains(string(readme), dir) {
			t.Errorf("README.md never mentions %s — document what it is for", dir)
		}
	}
}

// TestDocsReadmeCommandsRun holds property 5.
func TestDocsReadmeCommandsRun(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	goRunRE := regexp.MustCompile(`go run (\./[\w/-]+)`)
	inCI := map[string]bool{}
	for _, m := range goRunRE.FindAllStringSubmatch(string(ci), -1) {
		inCI[m[1]] = true
	}
	for _, m := range goRunRE.FindAllStringSubmatch(string(readme), -1) {
		tests, err := filepath.Glob(filepath.Join(m[1], "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		if !inCI[m[1]] && len(tests) == 0 {
			t.Errorf("README.md tells readers to %s, but no CI step runs it and %s has no tests", m[0], m[1])
		}
	}
}

// TestDocsCIRunPatternsResolve reads the CI workflow and fails if an
// alternative of a `go test -run '…|…'` pattern — or of a `-run "$NAME"`
// pattern held in the workflow's env — matches no test function in the
// packages its step lists: a test that was renamed, moved or deleted
// would otherwise silently drop out of the race steps that name it.
func TestDocsCIRunPatternsResolve(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	env := map[string]string{}
	for _, m := range regexp.MustCompile(`(?m)^\s+([A-Z_]+): "([^"]+)"$`).FindAllStringSubmatch(string(ci), -1) {
		env[m[1]] = m[2]
	}
	runRE := regexp.MustCompile(`go test([^\n&]*?)-run (?:'([^']+)'|"\$([A-Z_]+)")([^\n&]*)`)
	funcRE := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example)\w*)\(`)
	names := 0
	for _, m := range runRE.FindAllStringSubmatch(string(ci), -1) {
		args, pattern := m[1]+m[4], m[2]
		if m[3] != "" {
			if pattern = env[m[3]]; pattern == "" {
				t.Errorf("ci.yml: -run \"$%s\" names no env value", m[3])
				continue
			}
		}
		if strings.Contains(args, "-bench") {
			continue // `-run '^$'` there selects no test on purpose
		}
		var funcs []string
		for _, dir := range strings.Fields(args) {
			if !strings.HasPrefix(dir, "./") {
				continue
			}
			files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				src, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				for _, fm := range funcRE.FindAllSubmatch(src, -1) {
					funcs = append(funcs, string(fm[1]))
				}
			}
		}
		for _, alt := range strings.Split(pattern, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml: -run alternative %q: %v", alt, err)
				continue
			}
			names++
			if !slices.ContainsFunc(funcs, re.MatchString) {
				t.Errorf("ci.yml: -run alternative %q matches no test in%s", alt, args)
			}
		}
	}
	if names < 20 {
		t.Fatalf("found %d -run alternatives in ci.yml, want the ≥ 20 the race steps name — did the workflow move?", names)
	}
}
