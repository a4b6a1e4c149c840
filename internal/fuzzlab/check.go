package fuzzlab

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/guard"
	"repro/internal/scenario"
)

// Violation is one invariant breach on one run of a Spec.
type Violation struct {
	// Invariant names the breached property: "conservation",
	// "black-hole", "capacity", "fairness", "partition-divergence",
	// "fluid-conservation", "hybrid-determinism", or
	// "hybrid-divergence".
	Invariant string
	// Parts is the partition count of the breaching run (1 = serial).
	Parts int
	// Detail carries the numbers behind the breach.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s (parts=%d): %s", v.Invariant, v.Parts, v.Detail)
}

// Options tunes one Check call.
type Options struct {
	// Parts overrides the partition axis (nil uses Spec.PartsAxis).
	// Counts beyond 1 are ignored on fabrics that cannot shard.
	Parts []int
	// SkipJain disables the fairness-floor invariant.
	SkipJain bool
	// Tamper, when set, mutates the serial Result before the invariants
	// read it — the seam the lab's own tests use to prove a broken
	// counter is caught and shrunk. Production sweeps leave it nil.
	Tamper func(*scenario.Result)
}

// jainFloors is the per-scheme fairness floor on the symmetric
// permutation workload, calibrated against the current implementation
// with wide margin (observed indices sit well above). Schemes absent
// from the map use the conservative default.
var jainFloors = map[string]float64{
	"powertcp": 0.9,
	"hpcc":     0.9,
	"dctcp":    0.9,
	"timely":   0.9,
	"dcqcn":    0.9,
	"homa":     0.9,
	"reno":     0.85,
}

const defaultJainFloor = 0.7

// slackBytes is the per-host rounding allowance of the capacity
// invariant: deliveries quantize to whole packets, so the aggregate may
// exceed rate×horizon by up to about one MTU per host.
const slackBytes = 2 * 1500

// Check runs the Spec through every invariant: it builds and runs the
// serial scenario, asserts byte conservation, the no-failure black-hole
// bound, the receive-capacity bound, and (when the workload is a lone
// symmetric permutation) the Jain fairness floor — then re-runs the
// identical spec at each further partition count and requires the
// encoded Results to be byte-identical to the serial run.
//
// A Build or Run error means the Spec itself is malformed (a generator
// bug or a shrinker overshoot) and is returned as the error; only a
// clean run can yield violations.
func Check(sp *scenario.Spec, opts Options) ([]Violation, error) {
	axis := opts.Parts
	if axis == nil {
		axis = sp.PartsAxis()
	}
	serial, err := runAt(sp, 1)
	if err != nil {
		return nil, err
	}
	if opts.Tamper != nil {
		opts.Tamper(serial)
	}

	var vs []Violation
	vs = append(vs, checkConservation(sp, serial)...)
	vs = append(vs, checkCapacity(sp, serial)...)
	if !opts.SkipJain {
		vs = append(vs, checkFairness(sp, serial)...)
	}
	if sp.HasFluid() {
		hvs, err := checkHybrid(sp, serial)
		if err != nil {
			return nil, err
		}
		vs = append(vs, hvs...)
	}

	var want bytes.Buffer
	if err := serial.EncodeJSON(&want); err != nil {
		return nil, fmt.Errorf("fuzzlab: encoding serial result: %w", err)
	}
	for _, parts := range axis {
		if parts <= 1 || !sp.Partitionable() {
			continue
		}
		res, err := runAt(sp, parts)
		if err != nil {
			return nil, fmt.Errorf("fuzzlab: re-running at %d partitions: %w", parts, err)
		}
		var got bytes.Buffer
		if err := res.EncodeJSON(&got); err != nil {
			return nil, fmt.Errorf("fuzzlab: encoding %d-partition result: %w", parts, err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			vs = append(vs, Violation{
				Invariant: "partition-divergence",
				Parts:     parts,
				Detail:    diffJSON(want.Bytes(), got.Bytes()),
			})
		}
	}
	return vs, nil
}

func runAt(sp *scenario.Spec, parts int) (*scenario.Result, error) {
	sc, err := sp.Build(parts)
	if err != nil {
		return nil, err
	}
	// Panic capture: a generated spec that crashes the fabric is a
	// finding to report (and shrink), not a reason to kill the sweep.
	return guard.Capture(func() (*scenario.Result, error) { return scenario.Run(sc) })
}

// checkConservation asserts the payload ledger closes: the residual the
// probe computed must be zero, AND the identity recomputed from the
// published scalars must hold — so a corrupted individual counter is
// caught even if the fabric-side ledger still balances. When the
// timeline cuts no link, the failure-loss word must additionally be
// zero: a packet black-holed on a healthy fabric is a routing bug.
func checkConservation(sp *scenario.Spec, res *scenario.Result) []Violation {
	var vs []Violation
	emitted := res.Scalar("bytes_emitted")
	delivered := res.Scalar("bytes_delivered")
	dropped := res.Scalar("bytes_dropped")
	lost := res.Scalar("bytes_lost_fail")
	inflight := res.Scalar("bytes_inflight")
	if r := emitted - delivered - dropped - lost - inflight; r != 0 {
		vs = append(vs, Violation{
			Invariant: "conservation", Parts: 1,
			Detail: fmt.Sprintf("emitted %v − delivered %v − dropped %v − lost %v − inflight %v = %v, want 0",
				emitted, delivered, dropped, lost, inflight, r),
		})
	}
	if r := res.Scalar("bytes_residual"); r != 0 {
		vs = append(vs, Violation{
			Invariant: "conservation", Parts: 1,
			Detail: fmt.Sprintf("fabric ledger residual %v, want 0", r),
		})
	}
	if !sp.HasFailures() && lost != 0 {
		vs = append(vs, Violation{
			Invariant: "black-hole", Parts: 1,
			Detail: fmt.Sprintf("%v bytes lost to downed wires on a timeline with no link failures", lost),
		})
	}
	return vs
}

// checkCapacity bounds aggregate delivery by the receive line rate: no
// host can accept payload faster than its NIC drains it.
func checkCapacity(sp *scenario.Spec, res *scenario.Result) []Violation {
	perHost := deliveredByHost(res)
	rxGbps := res.Scalar("rx_cap_gbps_per_host")
	if perHost == nil || rxGbps <= 0 {
		return nil
	}
	horizonSec := float64(sp.HorizonUS) * 1e-6
	capPerHost := rxGbps * 1e9 / 8 * horizonSec
	var total float64
	for _, d := range perHost {
		if d > capPerHost+slackBytes {
			return []Violation{{
				Invariant: "capacity", Parts: 1,
				Detail: fmt.Sprintf("a host delivered %v bytes, line rate admits %v over %vµs",
					d, capPerHost, sp.HorizonUS),
			}}
		}
		total += d
	}
	if lim := capPerHost*float64(len(perHost)) + slackBytes*float64(len(perHost)); total > lim {
		return []Violation{{
			Invariant: "capacity", Parts: 1,
			Detail: fmt.Sprintf("aggregate delivery %v bytes exceeds fabric receive capacity %v", total, lim),
		}}
	}
	return nil
}

// checkFairness applies the Jain-index floor when the workload is
// exactly one symmetric permutation on an event-free symmetric fabric —
// the only shape where every host is statistically interchangeable and
// a fairness floor is sound.
func checkFairness(sp *scenario.Spec, res *scenario.Result) []Violation {
	// A fluid component delivers no per-host packet bytes, so the
	// per-host series the index reads would be vacuously uniform.
	if len(sp.Traffic) != 1 || sp.Traffic[0].Kind != "permutation" ||
		sp.Traffic[0].Override != "" || sp.Traffic[0].Fidelity != "" ||
		len(sp.Events) != 0 || sp.HorizonUS < 200 {
		return nil
	}
	perHost := deliveredByHost(res)
	if len(perHost) < 2 {
		return nil
	}
	idx := jain(perHost)
	floor, ok := jainFloors[sp.Scheme]
	if !ok {
		floor = defaultJainFloor
	}
	if idx < floor {
		return []Violation{{
			Invariant: "fairness", Parts: 1,
			Detail: fmt.Sprintf("Jain index %.3f below the %s floor %.2f on a symmetric permutation",
				idx, sp.Scheme, floor),
		}}
	}
	return nil
}

func deliveredByHost(res *scenario.Result) []float64 {
	for _, s := range res.Series {
		if s.Name == "delivered_bytes_by_host" {
			out := make([]float64, 0, len(s.Points))
			for _, p := range s.Points {
				out = append(out, p.V)
			}
			return out
		}
	}
	return nil
}

// jain returns the Jain fairness index of the allocation: 1 when all
// shares are equal, 1/n when one host takes everything.
func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1 // nothing delivered anywhere is (vacuously) fair
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// hybridFCTFactor bounds how far a packet-fidelity foreground flow's
// FCT (equivalently its goodput, size/FCT) may drift when the
// background runs at fluid instead of packet fidelity, across the
// whole generator space. The fluid model is an approximation — on
// adversarial generated mixes (greedy permutations, heavy poisson)
// the honest divergence reaches ~4× — so this is a catastrophe bound,
// not an accuracy contract: it catches a coupler that stops coupling
// (foreground FCTs collapse to unloaded values under a saturating
// background) or runs away (virtual share starving the foreground).
// The accuracy contract (±10% on calibration scenarios) lives in
// internal/scenario's differential test.
const hybridFCTFactor = 8.0

// runRecorded runs the spec serially and returns both the Result and
// the completed per-flow records (which scenario.Run discards on
// release).
func runRecorded(sp *scenario.Spec) (*scenario.Result, []scenario.FlowRecord, error) {
	sc, err := sp.Build(1)
	if err != nil {
		return nil, nil, err
	}
	var recs []scenario.FlowRecord
	res, err := guard.Capture(func() (*scenario.Result, error) {
		p, err := scenario.Prepare(sc)
		if err != nil {
			return nil, err
		}
		p.DriveTo(p.Horizon())
		res, err := p.Finish()
		if err != nil {
			return nil, err
		}
		recs = append(recs, p.Env().Lab.Records...)
		p.Release()
		return res, nil
	})
	return res, recs, err
}

// uniqueFCTs maps flow size → FCT for sizes that identify exactly one
// completed record — the only pairing between two runs' records that
// is unambiguous without flow identities.
func uniqueFCTs(recs []scenario.FlowRecord) map[int64]float64 {
	count := map[int64]int{}
	fct := map[int64]float64{}
	for _, r := range recs {
		count[r.Size]++
		fct[r.Size] = float64(r.FCT)
	}
	for sz, n := range count {
		if n != 1 {
			delete(fct, sz)
		}
	}
	return fct
}

// checkHybrid runs the hybrid-specific invariant battery on a spec with
// a fluid component:
//
//   - fluid-conservation: the coupler's integer ledger closes exactly —
//     fluid emitted − delivered − backlog ≡ 0 (the packet-side identity,
//     with fluid bytes folded in, is already covered by checkConservation).
//   - hybrid-determinism: two serial runs encode byte-identically — the
//     one repeat check a star spec gets, having no partition axis.
//   - hybrid-divergence: rerun with fluid fidelity stripped (all-packet)
//     and bound every unambiguously matched foreground flow's FCT ratio
//     by hybridFCTFactor.
func checkHybrid(sp *scenario.Spec, serial *scenario.Result) ([]Violation, error) {
	var vs []Violation
	em := serial.Scalar("fluid_bytes_emitted")
	del := serial.Scalar("fluid_bytes_delivered")
	back := serial.Scalar("fluid_bytes_backlog")
	if r := em - del - back; r != 0 {
		vs = append(vs, Violation{
			Invariant: "fluid-conservation", Parts: 1,
			Detail: fmt.Sprintf("fluid emitted %v − delivered %v − backlog %v = %v, want 0",
				em, del, back, r),
		})
	}

	resA, recsA, err := runRecorded(sp)
	if err != nil {
		return nil, fmt.Errorf("fuzzlab: re-running hybrid spec: %w", err)
	}
	resB, _, err := runRecorded(sp)
	if err != nil {
		return nil, fmt.Errorf("fuzzlab: re-running hybrid spec: %w", err)
	}
	var a, b bytes.Buffer
	if err := resA.EncodeJSON(&a); err != nil {
		return nil, fmt.Errorf("fuzzlab: encoding hybrid result: %w", err)
	}
	if err := resB.EncodeJSON(&b); err != nil {
		return nil, fmt.Errorf("fuzzlab: encoding hybrid result: %w", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		vs = append(vs, Violation{
			Invariant: "hybrid-determinism", Parts: 1,
			Detail: diffJSON(a.Bytes(), b.Bytes()),
		})
	}

	ref := *sp
	ref.Traffic = append([]scenario.TrafficSpec(nil), sp.Traffic...)
	for i := range ref.Traffic {
		ref.Traffic[i].Fidelity = ""
	}
	_, refRecs, err := runRecorded(&ref)
	if err != nil {
		return nil, fmt.Errorf("fuzzlab: running all-packet reference: %w", err)
	}
	refFCT := uniqueFCTs(refRecs)
	hybFCT := uniqueFCTs(recsA)
	sizes := make([]int64, 0, len(hybFCT))
	for sz := range hybFCT {
		sizes = append(sizes, sz)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	for _, sz := range sizes {
		h := hybFCT[sz]
		p, ok := refFCT[sz]
		if !ok || p <= 0 {
			// Completed in one fidelity only (horizon edge) or ambiguous
			// in the reference — no sound pairing to compare.
			continue
		}
		if ratio := h / p; ratio > hybridFCTFactor || ratio < 1/hybridFCTFactor {
			vs = append(vs, Violation{
				Invariant: "hybrid-divergence", Parts: 1,
				Detail: fmt.Sprintf("flow of size %d: hybrid FCT %.0fns vs all-packet %.0fns (ratio %.2f exceeds factor %v)",
					sz, h, p, ratio, hybridFCTFactor),
			})
		}
	}
	return vs, nil
}

// diffJSON summarizes where two encoded Results diverge, keeping the
// violation detail readable instead of dumping both documents.
func diffJSON(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("results diverge at line %d: serial %q vs partitioned %q",
				i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("results diverge in length: serial %d lines vs partitioned %d", len(wl), len(gl))
}
