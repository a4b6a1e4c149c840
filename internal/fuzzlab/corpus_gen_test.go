package fuzzlab

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
)

// TestPinCorpus regenerates testdata/corpus. It is the maintenance tool
// behind the pinned regression set, gated on POWERTCP_FUZZ_PIN=1 so
// normal runs never rewrite testdata.
//
// Each entry plants a distinct counter bug (via the Tamper seam) that a
// real fabric regression could introduce, scans generator seeds for a
// partitionable spec the bug manifests on, shrinks the violation to its
// minimal repro, verifies the repro passes the REAL invariant battery
// at partitions 1/2/4/8 (the tamper was the bug, not the fabric), and
// pins it. The committed corpus is therefore exactly what a genuine
// finding would leave behind, named after the bug class that bred it.
func TestPinCorpus(t *testing.T) {
	if os.Getenv("POWERTCP_FUZZ_PIN") == "" {
		t.Skip("corpus regeneration runs only with POWERTCP_FUZZ_PIN=1")
	}
	scalar := func(name string) func(*scenario.Result) bool {
		return func(res *scenario.Result) bool { return res.Scalar(name) > 0 }
	}
	pins := []struct {
		name string
		// startSeed offsets the seed scan so distinct pins minimize from
		// distinct generated scenarios instead of all collapsing onto the
		// first seed that manifests everything.
		startSeed int64
		// manifests gates seed selection: the planted bug only fires on
		// runs with this property, so the shrunk repro must keep it.
		manifests func(*scenario.Result) bool
		tamper    func(*scenario.Result)
	}{
		{
			// A switch drop counter losing one packet's worth of payload.
			name:      "drop-undercount",
			startSeed: 1,
			manifests: scalar("bytes_dropped"),
			tamper:    func(r *scenario.Result) { r.Scalars["bytes_dropped"] -= 1000 },
		},
		{
			// A downed-wire loss path forgetting part of a packet.
			name:      "fail-loss-undercount",
			startSeed: 10,
			manifests: scalar("bytes_lost_fail"),
			tamper:    func(r *scenario.Result) { r.Scalars["bytes_lost_fail"] -= 48 },
		},
		{
			// A receive path crediting a duplicate delivery.
			name:      "delivery-overcount",
			startSeed: 20,
			manifests: scalar("bytes_delivered"),
			tamper:    func(r *scenario.Result) { r.Scalars["bytes_delivered"] += 1000 },
		},
		{
			// Queued/on-wire words leaking a byte at the horizon.
			name:      "inflight-leak",
			startSeed: 30,
			manifests: scalar("bytes_inflight"),
			tamper:    func(r *scenario.Result) { r.Scalars["bytes_inflight"] -= 1 },
		},
		{
			// A NIC admission counter double-charging an emission.
			name:      "emit-overcount",
			startSeed: 40,
			manifests: scalar("bytes_emitted"),
			tamper:    func(r *scenario.Result) { r.Scalars["bytes_emitted"] += 1500 },
		},
		{
			// Divergence flavor: the serial result drifting from the
			// partitioned runs (here planted into the serial engine-step
			// count, caught by the byte comparison at 2 partitions).
			name:      "partition-step-drift",
			startSeed: 50,
			manifests: scalar("engine_steps"),
			tamper:    func(r *scenario.Result) { r.Scalars["engine_steps"]++ },
		},
	}

	dir := filepath.Join("testdata", "corpus")
	for _, pin := range pins {
		pin := pin
		t.Run(pin.name, func(t *testing.T) {
			parts := []int{1}
			if pin.name == "partition-step-drift" {
				parts = []int{1, 2}
			}
			opts := Options{Parts: parts, SkipJain: true, Tamper: func(r *scenario.Result) {
				if pin.manifests(r) {
					pin.tamper(r)
				}
			}}
			found := false
			for seed := pin.startSeed; seed <= pin.startSeed+400 && !found; seed++ {
				sp := Generate(seed)
				if !sp.Partitionable() {
					continue
				}
				res, err := runAt(&sp, 1)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !pin.manifests(res) {
					continue
				}
				vs, err := Check(&sp, opts)
				if err != nil || len(vs) == 0 {
					continue
				}
				shrunk := Shrink(sp, func(c *scenario.Spec) bool {
					cvs, cerr := Check(c, opts)
					return cerr == nil && len(cvs) > 0
				})
				// The tamper stood in for the fabric bug; the minimized
				// repro must be clean under the real invariants before it
				// can gate regressions.
				rvs, rerr := Check(&shrunk, Options{})
				if rerr != nil {
					t.Fatalf("seed %d: shrunk repro does not run: %v", seed, rerr)
				}
				if len(rvs) > 0 {
					t.Fatalf("seed %d: shrunk repro fails the real invariants: %v", seed, rvs)
				}
				shrunk.Name = pin.name
				path, err := WriteRepro(dir, &shrunk)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("seed %d shrunk to %d component(s), %d event(s) → %s",
					seed, len(shrunk.Traffic), len(shrunk.Events), path)
				found = true
			}
			if !found {
				t.Fatalf("no seed in 1..400 manifests %s", pin.name)
			}
		})
	}
}
