package analysis

import (
	"os"
	"slices"
	"testing"
)

// TestSimPathListMatchesInternal is the meta-test the analyzer scoping
// rests on: every package under internal/ must be either in
// SimPathPackages (analyzed) or in ExcludedPackages (skipped, with a
// written reason) — never both, never neither. Adding an internal
// package therefore forces an explicit decision about its determinism
// contract.
func TestSimPathListMatchesInternal(t *testing.T) {
	entries, err := os.ReadDir("..")
	if err != nil {
		t.Fatal(err)
	}
	var actual []string
	for _, e := range entries {
		if e.IsDir() {
			actual = append(actual, e.Name())
		}
	}
	if len(actual) < 10 {
		t.Fatalf("found only %d internal packages — wrong working directory?", len(actual))
	}
	for _, name := range actual {
		inSim := slices.Contains(SimPathPackages, name)
		_, inExcluded := ExcludedPackages[name]
		switch {
		case inSim && inExcluded:
			t.Errorf("internal/%s is both in SimPathPackages and ExcludedPackages", name)
		case !inSim && !inExcluded:
			t.Errorf("internal/%s is in neither SimPathPackages nor ExcludedPackages: decide its determinism contract and add it to one (with a reason if excluded)", name)
		}
	}
	for _, name := range SimPathPackages {
		if !slices.Contains(actual, name) {
			t.Errorf("SimPathPackages lists %q, which does not exist under internal/", name)
		}
	}
	for name, reason := range ExcludedPackages {
		if !slices.Contains(actual, name) {
			t.Errorf("ExcludedPackages lists %q, which does not exist under internal/", name)
		}
		if reason == "" {
			t.Errorf("ExcludedPackages[%q] has no reason: every exclusion must be documented", name)
		}
	}
	if !slices.IsSorted(SimPathPackages) {
		t.Errorf("SimPathPackages is not sorted")
	}
}

func TestAnalyzerScoping(t *testing.T) {
	if got := len(AnalyzersFor("repro/internal/sim")); got != 4 {
		t.Errorf("sim-path package gets %d analyzers, want 4", got)
	}
	if got := len(AnalyzersFor("repro/cmd/figures")); got != 3 {
		t.Errorf("cmd package gets %d analyzers, want 3 (no simclock: CLIs may read the wall clock)", got)
	}
	for _, a := range AnalyzersFor("repro/cmd/figures") {
		if a.Name == "simclock" {
			t.Errorf("simclock must not run on cmd packages")
		}
	}
	if got := AnalyzersFor("repro/internal/serve"); got != nil {
		t.Errorf("serve is excluded but gets %d analyzers", len(got))
	}
	if got := AnalyzersFor("repro/benchmark"); got != nil {
		t.Errorf("benchmark is out of scope but gets %d analyzers", len(got))
	}
	if got := AnalyzersFor("repro"); len(got) != 3 {
		t.Errorf("root package gets %d analyzers, want 3", len(got))
	}
}

// TestAnalyzerMetadata pins the reporting identity: names, directives
// and docs must be present and unique, since suppression comments and
// CI output key on them.
func TestAnalyzerMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Directive == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing metadata", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) != 4 {
		t.Errorf("expected the four powervet analyzers, got %d", len(seen))
	}
}
