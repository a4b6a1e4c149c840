package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"testing"
)

// expectation is one parsed want/suppressed marker.
type expectation struct {
	file       string
	line       int
	re         *regexp.Regexp
	suppressed bool
	matched    bool
}

// markerRE matches `// want "re"` and `// want ` + "`re`" + ` markers
// (double-quoted or backquoted, as in x/tools analysistest).
var markerRE = regexp.MustCompile("//\\s*(want|suppressed)\\s+(?:\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`)")

// runFixture loads testdata/src/<fixture>, runs one analyzer over it,
// and compares the diagnostics against the fixture's inline markers —
// the same contract as x/tools' analysistest:
//
//	for k := range m { // want "order-sensitive"
//
// expects an active finding on that line whose message matches the
// regexp, and
//
//	//powervet:ordered some reason
//	for k := range m { // suppressed "order-sensitive"
//
// expects the finding to fire but be silenced by a justified
// directive. Every diagnostic must be expected and every expectation
// must be matched; anything else fails the test.
func runFixture(t testing.TB, a *Analyzer, fixture string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	loader := NewLoader()
	pkg, err := loader.Load("fixture/"+fixture, dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}

	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				wants = append(wants, parseMarkers(pkg.Fset, c)...)
			}
		}
	}

	for _, d := range Run(a, pkg) {
		if !matchExpectation(wants, d) {
			kind := "diagnostic"
			if d.Suppressed {
				kind = "suppressed diagnostic"
			}
			t.Errorf("unexpected %s: %s", kind, d.String())
		}
	}
	for _, w := range wants {
		if !w.matched {
			kind := "want"
			if w.suppressed {
				kind = "suppressed"
			}
			t.Errorf("%s:%d: no diagnostic matched %s %q", w.file, w.line, kind, w.re.String())
		}
	}
}

// parseMarkers extracts want/suppressed expectations from one comment.
func parseMarkers(fset *token.FileSet, c *ast.Comment) []*expectation {
	var out []*expectation
	pos := fset.Position(c.Pos())
	for _, m := range markerRE.FindAllStringSubmatch(c.Text, -1) {
		src := m[2]
		if m[3] != "" {
			src = m[3]
		}
		re, err := regexp.Compile(src)
		if err != nil {
			panic(fmt.Sprintf("%s:%d: bad marker regexp %q: %v", pos.Filename, pos.Line, src, err))
		}
		out = append(out, &expectation{
			file:       pos.Filename,
			line:       pos.Line,
			re:         re,
			suppressed: m[1] == "suppressed",
		})
	}
	return out
}

// matchExpectation marks and reports the first unmatched expectation
// compatible with d.
func matchExpectation(wants []*expectation, d Diagnostic) bool {
	for _, w := range wants {
		if w.matched || w.suppressed != d.Suppressed {
			continue
		}
		if w.file != d.Pos.Filename || w.line != d.Pos.Line {
			continue
		}
		if !w.re.MatchString(d.Message) {
			continue
		}
		w.matched = true
		return true
	}
	return false
}
