package scenario

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// hybridFCTTolerance is the stated accuracy contract of the hybrid
// co-simulation: on the calibration scenarios below, every packet-
// fidelity foreground flow's FCT under a fluid background must be
// within ±10% of its FCT when the same background runs at packet
// fidelity. The three scenarios cover all three fluid laws (Power,
// Voltage, Current) and two traffic kinds (poisson, rackpairs); the
// empirically observed worst case is ~4.9% (rackpairs under HPCC), so
// 10% leaves headroom without being vacuous.
const hybridFCTTolerance = 0.10

// hybridForeground is the shared packet-fidelity probe workload: three
// flows with deliberately odd, unique sizes so their records can be
// matched between runs by size alone (the generated backgrounds draw
// sizes from workload CDFs that never produce these exact values).
func hybridForeground() []FlowEntry {
	return []FlowEntry{
		{StartUS: 20, Src: &HostRef{Kind: "host", I: 1}, Dst: &HostRef{Kind: "host", I: 13}, Size: 123_451},
		{StartUS: 60, Src: &HostRef{Kind: "host", I: 6}, Dst: &HostRef{Kind: "host", I: 10}, Size: 61_211},
		{StartUS: 120, Src: &HostRef{Kind: "host", I: 2}, Dst: &HostRef{Kind: "host", I: 14}, Size: 30_603},
	}
}

// hybridCalibrationSpecs returns the differential calibration suite:
// small leaf-spine scenarios whose background component carries
// Fidelity "fluid". Stripping that field yields the all-packet
// reference run.
func hybridCalibrationSpecs() []Spec {
	topo := TopoSpec{Kind: "leafspine", Leaves: 4, Spines: 2, ServersPerLeaf: 4}
	return []Spec{
		{Name: "poisson-powertcp", Seed: 11, Scheme: "powertcp", Topo: topo,
			Traffic: []TrafficSpec{
				{Kind: "poisson", Load: 0.3, GenHorizonUS: 300, Fidelity: "fluid"},
				{Kind: "flows", Flows: hybridForeground()},
			}, HorizonUS: 500},
		{Name: "rackpairs-hpcc", Seed: 12, Scheme: "hpcc", Topo: topo,
			Traffic: []TrafficSpec{
				{Kind: "rackpairs", FromRack: &HostRef{Kind: "rack_start", Rack: 2}, ToRack: &HostRef{Kind: "rack_start", Rack: 3}, Count: 2, Size: 60_000, Fidelity: "fluid"},
				{Kind: "flows", Flows: hybridForeground()},
			}, HorizonUS: 500},
		{Name: "poisson-timely", Seed: 21, Scheme: "timely", Topo: topo,
			Traffic: []TrafficSpec{
				{Kind: "poisson", Load: 0.3, GenHorizonUS: 300, SeedOffset: 5, Fidelity: "fluid"},
				{Kind: "flows", Flows: hybridForeground()},
			}, HorizonUS: 500},
	}
}

// hybridRunRecords executes sp serially and returns the completed
// per-flow records (white-box: read from the Lab before release).
func hybridRunRecords(t *testing.T, sp Spec) []FlowRecord {
	t.Helper()
	sc, err := sp.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(sc)
	if err != nil {
		t.Fatal(err)
	}
	p.DriveTo(p.Horizon())
	if _, err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	recs := append([]FlowRecord(nil), p.Env().Lab.Records...)
	p.Release()
	return recs
}

// fctBySize returns the FCT of the unique completed record with the
// given size, failing if the size is missing or ambiguous.
func fctBySize(t *testing.T, recs []FlowRecord, size int64) float64 {
	t.Helper()
	var fcts []float64
	for _, r := range recs {
		if r.Size == size {
			fcts = append(fcts, float64(r.FCT))
		}
	}
	if len(fcts) != 1 {
		t.Fatalf("foreground flow of size %d matched %d records, want exactly 1", size, len(fcts))
	}
	return fcts[0]
}

// TestHybridDifferential is the fidelity contract of internal/hybrid:
// for each calibration scenario, run once with the background at fluid
// fidelity and once with the identical background at packet fidelity,
// and require every foreground flow's FCT to agree within
// hybridFCTTolerance. This is the test that keeps the fluid coupling
// honest — a regression in the virtual-backlog fold, the serializer
// stretch, or the ODE law mapping shows up here as drift.
func TestHybridDifferential(t *testing.T) {
	for _, sp := range hybridCalibrationSpecs() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			hyb := hybridRunRecords(t, sp)

			pkt := sp
			pkt.Traffic = append([]TrafficSpec(nil), sp.Traffic...)
			for i := range pkt.Traffic {
				pkt.Traffic[i].Fidelity = ""
			}
			ref := hybridRunRecords(t, pkt)

			for _, fe := range hybridForeground() {
				h := fctBySize(t, hyb, fe.Size)
				p := fctBySize(t, ref, fe.Size)
				if err := math.Abs(h/p - 1); err > hybridFCTTolerance {
					t.Errorf("size %d: hybrid FCT %.0fns vs packet %.0fns — relative error %.3f exceeds %.2f",
						fe.Size, h, p, err, hybridFCTTolerance)
				}
			}
		})
	}
}

// TestHybridDeterminism: a fixed seed makes the hybrid preset's full
// Result envelope byte-identical across two independent serial runs —
// the same guarantee every packet-only scenario carries, extended over
// the RK4 exchange ticks.
func TestHybridDeterminism(t *testing.T) {
	encode := func() []byte {
		var sp Spec
		for _, p := range SpecPresets() {
			if p.Name == "hybrid" {
				sp = p
			}
		}
		if sp.Name == "" {
			t.Fatal("no hybrid preset")
		}
		sc, err := sp.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Fatalf("hybrid run not deterministic: two seed-fixed runs encoded %d vs %d bytes", len(a), len(b))
	}
}

// TestHybridResultGolden pins the seed-fixed hybrid preset's encoded
// Result under testdata/golden/. Like the canonical pins, this is a
// drift alarm: any change to the coupler's integration order, the
// exchange schedule, or the fluid accounting fold alters these bytes
// and must be an explicit decision (regenerate with
// POWERTCP_UPDATE_GOLDEN=1), never an accident.
func TestHybridResultGolden(t *testing.T) {
	update := os.Getenv("POWERTCP_UPDATE_GOLDEN") != ""
	var sp Spec
	for _, p := range SpecPresets() {
		if p.Name == "hybrid" {
			sp = p
		}
	}
	sc, err := sp.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", "hybrid.json")
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with POWERTCP_UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Errorf("hybrid preset output drifted from recorded golden %s (%d vs %d bytes)", path, len(buf.Bytes()), len(want))
	}
}

// TestHybridConservation: the fluid byte ledger closes exactly —
// emitted − delivered − backlog ≡ 0 — and folding it into the global
// accounting keeps bytes_residual at zero, on every calibration
// scenario and the preset.
func TestHybridConservation(t *testing.T) {
	specs := append(hybridCalibrationSpecs(), SpecPresets()...)
	for _, sp := range specs {
		if !sp.HasFluid() {
			continue
		}
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			sc, err := sp.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			em := res.Scalars["fluid_bytes_emitted"]
			del := res.Scalars["fluid_bytes_delivered"]
			back := res.Scalars["fluid_bytes_backlog"]
			if em <= 0 {
				t.Fatal("fluid component emitted no bytes")
			}
			if em-del-back != 0 {
				t.Errorf("fluid ledger leaks: emitted %v − delivered %v − backlog %v = %v", em, del, back, em-del-back)
			}
			if r := res.Scalars["bytes_residual"]; r != 0 {
				t.Errorf("bytes_residual = %v after fluid fold, want 0", r)
			}
		})
	}
}
