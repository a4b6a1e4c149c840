package fuzzlab

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/scenario"
)

// Canonical renders a Spec as the corpus JSON form: indented, trailing
// newline, field order fixed by the struct, version stamped. Two specs
// are equal exactly when their canonical bytes are — the equality the
// shrinker and the determinism tests rely on. (The corpus form is the
// human-readable sibling of scenario.MarshalCanonical's compact
// cache-key form; both carry the same version field and decode
// identically under scenario.DecodeSpec.)
func Canonical(sp *scenario.Spec) []byte {
	norm := *sp
	if norm.V == 0 {
		norm.V = scenario.SpecVersion
	}
	b, err := json.MarshalIndent(&norm, "", "  ")
	if err != nil {
		// Spec holds only plain data; marshaling cannot fail.
		panic(fmt.Sprintf("fuzzlab: marshaling spec: %v", err))
	}
	return append(b, '\n')
}

// WriteRepro pins a spec under dir as <name>.json (the spec's Name,
// falling back to its seed) and returns the written path. This is how a
// shrunk counterexample becomes a permanent regression test: the pinned
// corpus test re-checks every file here on every run.
func WriteRepro(dir string, sp *scenario.Spec) (string, error) {
	name := sp.Name
	if name == "" {
		name = fmt.Sprintf("seed-%d", sp.Seed)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".json")
	if err := os.WriteFile(path, Canonical(sp), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
