package analysis

import (
	"go/token"
	"testing"
)

// The four analyzer fixtures follow the x/tools analysistest contract:
// every `// want` marker must be matched by an active diagnostic, every
// `// suppressed` marker by a finding silenced through a justified
// //powervet directive, and no diagnostic may be unexpected. The
// fixtures cover positive hits, every allowlisted escape, and the
// suppression syntax for each analyzer.

func TestDetrangeFixture(t *testing.T) {
	runFixture(t, Detrange, "detrange")
}

func TestSimclockFixture(t *testing.T) {
	runFixture(t, Simclock, "simclock")
}

func TestPooluseFixture(t *testing.T) {
	runFixture(t, Pooluse, "pooluse")
}

func TestResultorderFixture(t *testing.T) {
	runFixture(t, Resultorder, "resultorder")
}

// TestSuiteCleanOnRealPackages is the in-process version of the CI
// gate's core claim for two load-bearing packages: the scenario
// execution layer (owns the Result envelope) and the routing control
// plane are free of active findings. The full-tree sweep runs in CI via
// `go run ./cmd/powervet ./...`.
func TestSuiteCleanOnRealPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checking real packages from source is slow")
	}
	loader := NewLoader()
	for path, dir := range map[string]string{
		"repro/internal/scenario": "../scenario",
		"repro/internal/route":    "../route",
	} {
		pkg, err := loader.Load(path, dir)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		for _, a := range All() {
			for _, d := range Run(a, pkg) {
				if !d.Suppressed {
					t.Errorf("%s: unexpected finding: %s", path, d.String())
				}
			}
		}
	}
}

// A finding prints as the compiler prints an error: position, then the
// analyzer and its message (powervet's output line).
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Pos: token.Position{Filename: "a.go", Line: 3, Column: 7}, Analyzer: "detrange", Message: "unordered map range"}
	if got, want := d.String(), "a.go:3:7: detrange: unordered map range"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
