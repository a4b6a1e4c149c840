package fuzzlab

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestPinnedCorpus re-checks every shrunk counterexample pinned under
// testdata/corpus through the full invariant battery, including the
// serial-vs-partitioned byte comparison at 1/2/4/8 partitions. A spec
// lands here because it once minimized a violation; this test is the
// permanent regression gate keeping each one fixed.
func TestPinnedCorpus(t *testing.T) {
	specs, err := loadCorpus(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatalf("loading corpus: %v", err)
	}
	if len(specs) < 5 {
		t.Fatalf("pinned corpus holds %d specs, want ≥5", len(specs))
	}
	for i := range specs {
		sp := specs[i]
		t.Run(sp.Name, func(t *testing.T) {
			if !sp.Partitionable() {
				t.Fatalf("corpus spec %s is not partitionable; the corpus pins the partition comparison too", sp.Name)
			}
			vs, err := Check(&sp, Options{})
			if err != nil {
				t.Fatalf("corpus spec no longer runs: %v", err)
			}
			for _, v := range vs {
				t.Errorf("pinned regression violated: %s", v)
			}
		})
	}
}

// TestGeneratorSmoke runs a band of generated specs through the serial
// invariants plus one partitioned comparison — the tier-1 slice of the
// fuzz surface. Every generated spec must build and run cleanly: an
// error is a generator bug, not a finding.
func TestGeneratorSmoke(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		sp := Generate(seed)
		vs, err := Check(&sp, Options{Parts: []int{1, 2}})
		if err != nil {
			t.Errorf("seed %d: generated spec does not run: %v", seed, err)
			continue
		}
		for _, v := range vs {
			t.Errorf("seed %d: %s", seed, v)
		}
	}
}

// TestGeneratorSchemesResolve holds every scheme name the generator and
// the Jain check carry to the scheme table: a law deleted from the
// table must leave the generator in the same change, not linger until
// a nightly seed happens to draw it.
func TestGeneratorSchemesResolve(t *testing.T) {
	names := append(append([]string{}, BaseSchemes...), overrideSchemes...)
	for name := range jainFloors {
		names = append(names, name)
	}
	for _, name := range names {
		if _, err := scenario.ResolveScheme(name); err != nil {
			t.Errorf("generator scheme %q does not resolve: %v", name, err)
		}
	}
}

// TestSeededViolationCaughtAndShrunk proves the lab catches a planted
// fabric bug and minimizes its repro: a tampered Result simulating a
// drop counter that undercounts by one packet must break conservation,
// and the shrinker must cut the busy five-component scenario down to a
// ≤3-component (in practice one-component) repro that still exhibits
// the violation — deterministically.
func TestSeededViolationCaughtAndShrunk(t *testing.T) {
	// A busy but quick scenario: three traffic components, a link cut,
	// and an injected burst, all inside 120µs.
	sp := scenario.Spec{
		Seed:   3,
		Scheme: "powertcp",
		Topo:   scenario.TopoSpec{Kind: "leafspine", Leaves: 2, Spines: 2, ServersPerLeaf: 2},
		Traffic: []scenario.TrafficSpec{
			{Kind: "pulse", Receiver: &scenario.HostRef{Kind: "host", I: 0}, FanIn: 2, FlowSize: 30_000},
			{Kind: "flows", Flows: []scenario.FlowEntry{
				{Src: &scenario.HostRef{Kind: "host", I: 1}, Dst: &scenario.HostRef{Kind: "host", I: 3}, Size: 20_000},
				{Src: &scenario.HostRef{Kind: "host", I: 2}, Dst: &scenario.HostRef{Kind: "host", I: 0}, Size: 15_000, StartUS: 10},
			}},
			{Kind: "rackpairs", FromRack: &scenario.HostRef{Kind: "rack_start", Rack: 1},
				ToRack: &scenario.HostRef{Kind: "rack_start", Rack: 0}, Count: 2, Size: 25_000},
		},
		Events: []scenario.EventSpec{
			{Kind: "fail", AtUS: 40, A: &scenario.SwitchRef{Tier: "leaf", I: 0}, B: &scenario.SwitchRef{Tier: "spine", I: 1}},
			{Kind: "inject", AtUS: 50, Inject: &scenario.TrafficSpec{Kind: "flows", Flows: []scenario.FlowEntry{
				{Src: &scenario.HostRef{Kind: "host", I: 3}, Dst: &scenario.HostRef{Kind: "host", I: 1}, Size: 10_000},
			}}},
		},
		ReconvergeUS: 15,
		HorizonUS:    120,
	}

	// The planted bug: whenever anything was delivered, the delivered
	// word over-reports by one MSS — as a miscounting receive path would.
	tamper := func(res *scenario.Result) {
		if res.Scalar("bytes_delivered") > 0 {
			res.Scalars["bytes_delivered"] += 1000
		}
	}
	opts := Options{Parts: []int{1}, SkipJain: true, Tamper: tamper}

	vs, err := Check(&sp, opts)
	if err != nil {
		t.Fatalf("seeded scenario does not run: %v", err)
	}
	caught := false
	for _, v := range vs {
		if v.Invariant == "conservation" {
			caught = true
		}
	}
	if !caught {
		t.Fatalf("planted delivery miscount not caught; violations: %v", vs)
	}

	failing := func(c *scenario.Spec) bool {
		cvs, cerr := Check(c, opts)
		return cerr == nil && len(cvs) > 0
	}
	shrunk := Shrink(sp, failing)
	if n := len(shrunk.Traffic); n > 3 {
		t.Errorf("shrunk repro keeps %d traffic components, want ≤3", n)
	}
	// The repro needs exactly one traffic source to manifest a delivery
	// miscount — either a lone component or a lone injected one.
	if n := len(shrunk.Traffic) + len(shrunk.Events); n > 1 {
		t.Errorf("shrunk repro keeps %d traffic/event entries, want 1", n)
	}
	if !failing(&shrunk) {
		t.Errorf("shrunk repro no longer exhibits the violation")
	}
	// Determinism: shrinking the same spec under the same predicate must
	// reproduce the identical minimal repro, byte for byte.
	again := Shrink(sp, failing)
	if !bytes.Equal(Canonical(&shrunk), Canonical(&again)) {
		t.Errorf("shrink is not deterministic:\n%s\nvs\n%s", Canonical(&shrunk), Canonical(&again))
	}
}

// TestSpecJSONRoundTrip pins that the canonical corpus form survives a
// marshal/unmarshal cycle unchanged for generated specs — otherwise a
// pinned repro would drift from what the shrinker produced.
func TestSpecJSONRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		sp := Generate(seed)
		var back scenario.Spec
		if err := json.Unmarshal(Canonical(&sp), &back); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(Canonical(&sp), Canonical(&back)) {
			t.Errorf("seed %d: spec changes across a JSON round trip", seed)
		}
	}
}

// TestDeepSweep is the nightly entry point: gated on POWERTCP_FUZZ_DEEP
// (a seed count), it sweeps that many fresh seeds through the full
// invariant battery, shrinks any finding, and writes the repro JSON to
// POWERTCP_FUZZ_OUT (or a temp dir) for the CI artifact upload — ready
// to be committed into testdata/corpus.
func TestDeepSweep(t *testing.T) {
	env := os.Getenv("POWERTCP_FUZZ_DEEP")
	if env == "" {
		t.Skip("deep sweep runs only with POWERTCP_FUZZ_DEEP=<seed count> (nightly CI)")
	}
	n, err := strconv.Atoi(env)
	if err != nil || n <= 0 {
		t.Fatalf("POWERTCP_FUZZ_DEEP must be a positive seed count, got %q", env)
	}
	out := os.Getenv("POWERTCP_FUZZ_OUT")
	if out == "" {
		out = t.TempDir()
	}
	// Nightly seeds start past the tier-1 smoke band so the sweep always
	// explores fresh specs.
	rep := Sweep(1000, n, Options{}, nil, testWriter{t})
	t.Logf("deep sweep: %d seeds checked, %d generator errors, %d findings",
		rep.Checked, rep.GenErrors, len(rep.Findings))
	if rep.GenErrors > 0 {
		t.Errorf("%d seeds produced invalid specs", rep.GenErrors)
	}
	for _, f := range rep.Findings {
		sp := f.Shrunk
		path, werr := WriteRepro(out, &sp)
		if werr != nil {
			t.Errorf("writing repro for seed %d: %v", f.Seed, werr)
			continue
		}
		t.Errorf("seed %d violated %d invariant(s); shrunk repro pinned at %s — commit it to testdata/corpus",
			f.Seed, len(f.Violations), path)
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// loadCorpus reads every *.json spec under dir, sorted by filename so
// iteration order is stable. Each spec's Name is set to its file stem.
func loadCorpus(dir string) ([]scenario.Spec, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	specs := make([]scenario.Spec, 0, len(names))
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			return nil, err
		}
		// Strict decode: a corpus file with a misspelled field would
		// otherwise silently pin a different scenario than it names.
		sp, err := scenario.DecodeSpec(b)
		if err != nil {
			return nil, fmt.Errorf("fuzzlab: corpus file %s: %w", n, err)
		}
		sp.Name = strings.TrimSuffix(n, ".json")
		specs = append(specs, *sp)
	}
	return specs, nil
}

// A violation and a serial-vs-partitioned divergence print the numbers
// a reader needs: the invariant and partition count, and the first line
// where the two Result documents part (or their lengths).
func TestViolationAndDivergenceMessages(t *testing.T) {
	v := Violation{Invariant: "conservation", Parts: 4, Detail: "sent 10 != delivered 9"}
	if got, want := v.String(), "conservation (parts=4): sent 10 != delivered 9"; got != want {
		t.Errorf("Violation.String() = %q, want %q", got, want)
	}
	if got, want := diffJSON([]byte("{\n\"a\": 1\n}"), []byte("{\n\"a\": 2\n}")),
		`results diverge at line 2: serial "\"a\": 1" vs partitioned "\"a\": 2"`; got != want {
		t.Errorf("diffJSON = %q, want %q", got, want)
	}
	if got, want := diffJSON([]byte("{\n}"), []byte("{\n}\n")),
		"results diverge in length: serial 2 lines vs partitioned 3"; got != want {
		t.Errorf("diffJSON = %q, want %q", got, want)
	}
}
