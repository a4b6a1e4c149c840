package exp

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/scenario"
)

// Suite executes many experiment specs concurrently over a worker pool.
// Every run owns an isolated sim.Engine and network, so parallel
// execution is safe, and each result depends only on its spec and seed —
// a suite run is byte-identical to a serial one regardless of Workers
// (asserted by TestSuiteParallelMatchesSerial).
type Suite struct {
	Specs []Spec
	// Workers bounds the pool; ≤0 means runtime.GOMAXPROCS(0).
	Workers int
}

// NewSuite builds a suite from specs.
func NewSuite(specs ...Spec) *Suite { return &Suite{Specs: specs} }

// Run executes every spec and returns results in spec order. Failed
// specs leave a nil slot; the joined error names each failure. The
// remaining specs still run to completion — a spec whose experiment
// panics is recovered per spec (exp.Run wraps the preset's run in
// guard.Capture), so one crash surfaces as a *guard.PanicError in the
// joined error instead of killing the pool.
func (su *Suite) Run() ([]*scenario.Result, error) {
	n := su.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > len(su.Specs) {
		n = len(su.Specs)
	}
	results := make([]*scenario.Result, len(su.Specs))
	errs := make([]error, len(su.Specs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				r, err := Run(su.Specs[i])
				if err != nil {
					errs[i] = fmt.Errorf("spec %d: %w", i, err)
					continue
				}
				results[i] = r
			}
		}()
	}
	for i := range su.Specs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results, errors.Join(errs...)
}

// RunSuite is shorthand for NewSuite(specs...).Run().
func RunSuite(specs ...Spec) ([]*scenario.Result, error) {
	return NewSuite(specs...).Run()
}
