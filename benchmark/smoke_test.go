package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclaration holds BENCHMARK.json to the limits of the contract it
// is written to, so a later edit that breaks one fails here and not in
// the driver.
func TestDeclaration(t *testing.T) {
	d, err := loadDeclaration(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", d.RunSeconds)
	}
	if n := len(d.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(d.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(d.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not 1..64 of [A-Za-z0-9_.-] starting with a letter or digit", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range d.Workloads {
		name(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the program runs %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range d.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error(`end_to_end needs setup_s with unit "s" and better "lower"`)
	}
	for _, m := range d.PerLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	for _, m := range append(d.EndToEnd, d.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
}

// TestSmoke runs all four workloads twice untraced and once traced at
// toy scale and checks what the benchmark promises about its own output:
// every declared metric is there exactly once with the declared unit,
// nothing failed, and everything exact — inputs, results, event counts —
// repeats exactly.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four workloads end to end")
	}
	d, err := loadDeclaration(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string, trace bool) *outcome {
		t.Helper()
		o, err := runWorkload(name, runCfg{seed: 3, smoke: true, trace: trace})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.check(o); err != nil {
			t.Error(err)
		}
		if o.Failed != 0 || o.Attempted < 1 {
			t.Errorf("%s: %d of %d operations failed: %v", name, o.Failed, o.Attempted, o.Problems)
		}
		for n := range o.Metrics {
			if !nameRE.MatchString(n) {
				t.Errorf("%s: metric name %q", name, n)
			}
		}
		return o
	}
	var spans *tracer
	for _, name := range workloadNames {
		a, b, tr := run(name, false), run(name, false), run(name, true)
		for _, o := range []*outcome{b, tr} {
			if o.InputDigest != a.InputDigest || o.ResultDigest != a.ResultDigest || o.Ops != a.Ops {
				t.Errorf("%s: input %.12s result %.12s ops %d, first run had %.12s %.12s %d",
					name, o.InputDigest, o.ResultDigest, o.Ops, a.InputDigest, a.ResultDigest, a.Ops)
			}
		}
		if a.K != 2 {
			t.Errorf("%s: %d repetitions at smoke scale, want 2", name, a.K)
		}
		for _, m := range []string{"live_heap_mb", "alloc_mb_per_run", "allocs_per_kop", "run_s", "ops_per_sec", "setup_s"} {
			if a.Metrics[m].Value <= 0 {
				t.Errorf("%s: %s = %v, an end-to-end metric is never 0", name, m, a.Metrics[m].Value)
			}
		}
		if name != "serve-mix" {
			if got := tr.Metrics["sim.events"].Value; got != float64(a.Ops) {
				t.Errorf("%s: traced sim.events %v, untraced ops %d", name, got, a.Ops)
			}
		}
		if tr.spans == nil || len(tr.spans.spans) == 0 {
			t.Errorf("%s: the traced run recorded no spans", name)
			continue
		}
		for i, s := range tr.spans.spans {
			if s.End < s.Start || s.Parent >= i {
				t.Errorf("%s: span %d %q: start %d end %d parent %d", name, i, s.Name, s.Start, s.End, s.Parent)
				break
			}
		}
		spans = tr.spans
	}

	// A different seed is a different input.
	if a, b := genWebsearch64(3, true), genWebsearch64(4, true); a.digest == b.digest {
		t.Error("websearch64: seeds 3 and 4 generate the same input")
	}

	// The spans can be written out, and two result files of the same
	// commit agree.
	dir := t.TempDir()
	if err := spans.write(filepath.Join(dir, "spans.json")); err != nil {
		t.Error(err)
	}
	file := filepath.Join(dir, "set.jsonl")
	for _, name := range workloadNames[:1] {
		if err := appendJSON(file, run(name, false)); err != nil {
			t.Fatal(err)
		}
	}
	var table bytes.Buffer
	if _, err := agreeFiles(&table, d, file, file); err != nil {
		t.Error(err)
	}
	if !strings.Contains(table.String(), "identical in 1") {
		t.Errorf("-agree of a file with itself:\n%s", table.String())
	}
	if left, _ := filepath.Glob(".benchmark-tmp-*"); len(left) > 0 {
		t.Errorf("the disk rung left %v behind", left)
		for _, l := range left {
			os.RemoveAll(l)
		}
	}
}
