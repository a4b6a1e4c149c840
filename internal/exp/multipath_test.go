package exp

import (
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// Scaled-down multipath specs shared by the tests below.
func permSpec(routing string) Spec {
	return Spec{Preset: Permutation{Routing: routing, ServersPerTor: 4,
		Window: 2 * sim.Millisecond},
		Scheme: scenario.PowerTCP, Seed: 1}
}

func TestPermutationECMPSpreadsAndOutperformsSinglePath(t *testing.T) {
	ecmp := mustRun(t, permSpec("ecmp")).Raw.(*PermutationResult)
	single := mustRun(t, permSpec("single")).Raw.(*PermutationResult)

	if ecmp.Routing != "ecmp" || single.Routing != "single" {
		t.Fatalf("routing labels: %q, %q", ecmp.Routing, single.Routing)
	}
	if ecmp.Flows != 32 {
		t.Fatalf("permutation launched %d flows on a 32-host tree", ecmp.Flows)
	}
	// ECMP engages (nearly) every ToR uplink — at 32 flows the hash may
	// miss one — while deterministic single-path concentrates each ToR
	// onto one. The exhaustive per-table spread assertion lives in the
	// topo tests; here we check the traffic actually spread.
	if ecmp.UplinksUsed < ecmp.UplinksTotal-1 {
		t.Fatalf("ECMP used %d/%d uplinks", ecmp.UplinksUsed, ecmp.UplinksTotal)
	}
	if single.UplinksUsed >= ecmp.UplinksUsed {
		t.Fatalf("single-path used %d uplinks, ECMP %d — no spreading win",
			single.UplinksUsed, ecmp.UplinksUsed)
	}
	// Spreading pays: higher aggregate goodput and better fairness.
	var eAvg, sAvg float64
	for _, g := range ecmp.PerFlowGbps {
		eAvg += g
	}
	for _, g := range single.PerFlowGbps {
		sAvg += g
	}
	if eAvg <= sAvg {
		t.Fatalf("ECMP aggregate %.1f ≤ single-path %.1f", eAvg, sAvg)
	}
	if ecmp.Jain <= single.Jain {
		t.Fatalf("ECMP Jain %.3f ≤ single-path %.3f", ecmp.Jain, single.Jain)
	}
}

func TestAsymmetryWCMPBeatsECMPBeatsSinglePath(t *testing.T) {
	// 8 senders × 25G = 200G offered over 150G of spine capacity: the
	// fabric must be saturated for the strategies to separate.
	spec := func(routing string) Spec {
		return Spec{Preset: Asymmetry{Routing: routing, ServersPerTor: 8,
			Window: 2 * sim.Millisecond},
			Scheme: scenario.PowerTCP, Seed: 1}
	}
	ecmp := mustRun(t, spec("ecmp")).Raw.(*AsymmetryResult)
	wcmp := mustRun(t, spec("wecmp")).Raw.(*AsymmetryResult)
	single := mustRun(t, spec("single")).Raw.(*AsymmetryResult)

	// Weighted hashing matches the 2:1 spine capacities: fairness
	// improves over capacity-blind ECMP.
	if wcmp.Jain <= ecmp.Jain {
		t.Fatalf("WCMP Jain %.3f ≤ ECMP %.3f", wcmp.Jain, ecmp.Jain)
	}
	// Single-path leaves a spine idle and loses efficiency.
	if single.Efficiency >= 0.85*ecmp.Efficiency {
		t.Fatalf("single-path efficiency %.2f suspiciously close to ECMP %.2f",
			single.Efficiency, ecmp.Efficiency)
	}
	idle := 0
	for _, u := range single.SpineUtil {
		if u == 0 {
			idle++
		}
	}
	if idle == 0 {
		t.Fatal("single-path engaged every spine — not single-path")
	}
	for _, u := range ecmp.SpineUtil {
		if u <= 0 {
			t.Fatalf("ECMP left a spine idle: %v", ecmp.SpineUtil)
		}
	}
}

func TestFailoverCutsRecoversAndRestores(t *testing.T) {
	res := mustRun(t, Spec{Preset: Failover{ServersPerTor: 4, Flows: 2},
		Scheme: scenario.PowerTCP, Seed: 1})
	fr := res.Raw.(*FailoverResult)

	if fr.PreFailGbps < 20 {
		t.Fatalf("pre-failure goodput %.1f Gbps, want a loaded fabric", fr.PreFailGbps)
	}
	if fr.LostPackets == 0 {
		t.Fatal("a cut spine link lost no packets")
	}
	if !fr.Recovered {
		t.Fatal("goodput never recovered after reconvergence")
	}
	if fr.RecoveryUs <= 0 || fr.RecoveryUs > 3000 {
		t.Fatalf("recovery took %.0fµs, want (0, 3000]", fr.RecoveryUs)
	}
	if fr.PostFailGbps < 0.8*fr.PreFailGbps {
		t.Fatalf("post-recovery plateau %.1f Gbps vs pre-fail %.1f",
			fr.PostFailGbps, fr.PreFailGbps)
	}
	// Initial build + failure reconvergence + restore reconvergence.
	if got := res.Scalar("route_rebuilds"); got != 3 {
		t.Fatalf("route_rebuilds = %v, want 3", got)
	}
}

func TestFailoverWithoutRestoreKeepsLinkDown(t *testing.T) {
	res := mustRun(t, Spec{Preset: Failover{ServersPerTor: 4, Flows: 2, FailAfter: sim.Millisecond,
		RestoreAfter: KeepLinkDown, Window: 3 * sim.Millisecond},
		Scheme: scenario.PowerTCP, Seed: 1})
	// Only the initial build and the failure reconvergence.
	if got := res.Scalar("route_rebuilds"); got != 2 {
		t.Fatalf("route_rebuilds = %v, want 2 (no restore)", got)
	}
	if res.Scalar("recovered") != 1 {
		t.Fatal("flows did not recover onto the surviving spine")
	}
}

func TestMultipathExperimentsRejectBadRouting(t *testing.T) {
	for _, p := range []Preset{Permutation{Routing: "bogus"}, Asymmetry{Routing: "bogus"}, Failover{Routing: "bogus"}} {
		if _, err := Run(Spec{Preset: p, Scheme: scenario.PowerTCP}); err == nil {
			t.Fatalf("%s accepted bogus routing strategy", p.Name())
		}
	}
}
