package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// declaredMetric is one metric as BENCHMARK.json declares it.
type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// declaration is BENCHMARK.json: the contract the benchmark's output is
// held to. The program reads it for run_seconds, for the direction and
// bound it prints beside each number, and for -agree; and it refuses to
// print a result whose metric names or units differ from it.
type declaration struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func loadDeclaration(path string) (*declaration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the module root)", err)
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

func (d *declaration) lookup(name string) declaredMetric {
	for _, m := range append(d.EndToEnd, d.PerLayer...) {
		if m.Name == name {
			return m
		}
	}
	return declaredMetric{Name: name}
}

// check holds an outcome to the declaration: exactly the declared
// metrics of its mode, each with the declared unit.
func (d *declaration) check(o *outcome) error {
	want := d.EndToEnd
	if o.Trace {
		want = d.PerLayer
	}
	for _, m := range want {
		got, ok := o.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s is declared in BENCHMARK.json but was not measured", o.Workload, m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", o.Workload, m.Name, got.Unit, m.Unit)
		}
	}
	if len(o.Metrics) != len(want) {
		for n := range o.Metrics {
			if d.lookup(n).Better == "" {
				return fmt.Errorf("%s: metric %s was measured but is not declared in BENCHMARK.json", o.Workload, n)
			}
		}
		return fmt.Errorf("%s: %d metrics measured, %d declared for this mode", o.Workload, len(o.Metrics), len(want))
	}
	return nil
}

// quartiles are Python's statistics.quantiles(v, n=4): the cut points
// the benchmark's acceptance rule is written in.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// readOutcomes loads a file written with -out.
func readOutcomes(path string) ([]*outcome, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var all []*outcome
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var o outcome
		if err := json.Unmarshal(sc.Bytes(), &o); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		all = append(all, &o)
	}
	return all, sc.Err()
}

// agreeFiles compares two result sets of the same commit the way the
// benchmark's acceptance does: per (workload, end-to-end metric), the
// median of set B may not be worse than the median of set A by more than
// the metric's bound, and each set's own spread — interquartile range
// over median — has to stay within the bound (setup_s excepted, which
// has one cold sample per run). Exact quantities — event counts and
// digests — must be identical for equal seeds. It prints one row per
// pair and reports whether all agreed.
func agreeFiles(w io.Writer, d *declaration, pathA, pathB string) (bool, error) {
	a, err := readOutcomes(pathA)
	if err != nil {
		return false, err
	}
	b, err := readOutcomes(pathB)
	if err != nil {
		return false, err
	}
	values := func(set []*outcome, workload, name string) []float64 {
		var v []float64
		for _, o := range set {
			if m, ok := o.Metrics[name]; ok && o.Workload == workload && !o.Trace {
				v = append(v, m.Value)
			}
		}
		return v
	}
	ok := true
	fmt.Fprintf(w, "| workload | metric | median A | median B | B worse by | bound | spread A | spread B | verdict |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|\n")
	for _, wl := range d.Workloads {
		for _, m := range d.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			verdict := "agree"
			switch {
			case worse > m.Bound:
				verdict = "DISAGREE"
			case m.Name != "setup_s" && (spreadA > m.Bound || spreadB > m.Bound):
				verdict = "TOO NOISY"
			case worse > m.Bound/2 || worse < -m.Bound/2:
				verdict = "agree (over half the bound)"
			}
			if verdict == "DISAGREE" || verdict == "TOO NOISY" {
				ok = false
			}
			fmt.Fprintf(w, "| %s | %s | %.6g | %.6g | %+.2f%% | %.0f%% | %.2f%% | %.2f%% | %s |\n",
				wl.Name, m.Name, a2, b2, 100*worse, 100*m.Bound, 100*spreadA, 100*spreadB, verdict)
		}
	}
	// Exact quantities, matched by workload and seed.
	type id struct {
		workload string
		seed     int64
	}
	exact := map[id]*outcome{}
	for _, o := range a {
		if !o.Trace {
			exact[id{o.Workload, o.Seed}] = o
		}
	}
	pairs, differ := 0, 0
	for _, o := range b {
		p := exact[id{o.Workload, o.Seed}]
		if p == nil || o.Trace {
			continue
		}
		pairs++
		if p.Ops != o.Ops || p.InputDigest != o.InputDigest || p.ResultDigest != o.ResultDigest {
			differ++
			fmt.Fprintf(w, "\n%s seed %d: ops %d vs %d, input %.12s vs %.12s, result %.12s vs %.12s — DIFFER\n",
				o.Workload, o.Seed, p.Ops, o.Ops, p.InputDigest, o.InputDigest, p.ResultDigest, o.ResultDigest)
		}
	}
	fmt.Fprintf(w, "\n%d (workload, seed) pairs in both sets: ops, input digest and result digest identical in %d, different in %d\n",
		pairs, pairs-differ, differ)
	for _, o := range append(a, b...) {
		if o.Failed > 0 {
			ok = false
			fmt.Fprintf(w, "%s seed %d: %d of %d operations failed\n", o.Workload, o.Seed, o.Failed, o.Attempted)
		}
	}
	return ok && differ == 0, nil
}
