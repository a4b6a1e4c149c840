package fuzzlab

import (
	"testing"

	"repro/internal/scenario"
)

// FuzzScenario is the native fuzzing entry point: the fuzzer mutates
// generator seeds, and every derived spec must run cleanly and hold
// every invariant (the fairness floor included — generated permutation
// specs are exactly the shape it applies to) plus the two-partition
// byte comparison. Run with `go test -fuzz=FuzzScenario ./internal/fuzzlab`.
func FuzzScenario(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 17, 42, 1 << 40, -9} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		sp := Generate(seed)
		vs, err := Check(&sp, Options{Parts: []int{1, 2}})
		if err != nil {
			t.Fatalf("seed %d: generated spec does not run: %v", seed, err)
		}
		for _, v := range vs {
			t.Errorf("seed %d: %s", seed, v)
		}
		if t.Failed() {
			shrunk := Shrink(sp, func(c *scenario.Spec) bool {
				cvs, cerr := Check(c, Options{Parts: []int{1, 2}})
				return cerr == nil && len(cvs) > 0
			})
			t.Logf("shrunk repro (pin under testdata/corpus):\n%s", Canonical(&shrunk))
		}
	})
}
