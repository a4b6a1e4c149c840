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
	ecmp := mustRun(t, permSpec("ecmp"))
	single := mustRun(t, permSpec("single"))

	if n := scalar(t, ecmp, "flows"); n != 32 {
		t.Fatalf("permutation launched %v flows on a 32-host tree", n)
	}
	// ECMP engages (nearly) every ToR uplink — at 32 flows the hash may
	// miss one — while deterministic single-path concentrates each ToR
	// onto one. The exhaustive per-table spread assertion lives in the
	// topo tests; here we check the traffic actually spread.
	eUsed, sUsed := scalar(t, ecmp, "uplinks_used"), scalar(t, single, "uplinks_used")
	if total := scalar(t, ecmp, "uplinks_total"); eUsed < total-1 {
		t.Fatalf("ECMP used %v/%v uplinks", eUsed, total)
	}
	if sUsed >= eUsed {
		t.Fatalf("single-path used %v uplinks, ECMP %v — no spreading win", sUsed, eUsed)
	}
	// Spreading pays: higher aggregate goodput and better fairness.
	var eAvg, sAvg float64
	for _, p := range points(t, ecmp, "flow_goodput_gbps") {
		eAvg += p.V
	}
	for _, p := range points(t, single, "flow_goodput_gbps") {
		sAvg += p.V
	}
	if eAvg <= sAvg {
		t.Fatalf("ECMP aggregate %.1f ≤ single-path %.1f", eAvg, sAvg)
	}
	if ej, sj := scalar(t, ecmp, "jain"), scalar(t, single, "jain"); ej <= sj {
		t.Fatalf("ECMP Jain %.3f ≤ single-path %.3f", ej, sj)
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
	ecmp := mustRun(t, spec("ecmp"))
	wcmp := mustRun(t, spec("wecmp"))
	single := mustRun(t, spec("single"))

	// Weighted hashing matches the 2:1 spine capacities: fairness
	// improves over capacity-blind ECMP.
	if wj, ej := scalar(t, wcmp, "jain"), scalar(t, ecmp, "jain"); wj <= ej {
		t.Fatalf("WCMP Jain %.3f ≤ ECMP %.3f", wj, ej)
	}
	// Single-path leaves a spine idle and loses efficiency.
	if se, ee := scalar(t, single, "efficiency"), scalar(t, ecmp, "efficiency"); se >= 0.85*ee {
		t.Fatalf("single-path efficiency %.2f suspiciously close to ECMP %.2f", se, ee)
	}
	idle := 0
	for _, u := range points(t, single, "spine_util") {
		if u.V == 0 {
			idle++
		}
	}
	if idle == 0 {
		t.Fatal("single-path engaged every spine — not single-path")
	}
	for _, u := range points(t, ecmp, "spine_util") {
		if u.V <= 0 {
			t.Fatalf("ECMP left spine %v idle", u.X)
		}
	}
}

func TestFailoverCutsRecoversAndRestores(t *testing.T) {
	res := mustRun(t, Spec{Preset: Failover{ServersPerTor: 4, Flows: 2},
		Scheme: scenario.PowerTCP, Seed: 1})
	pre := scalar(t, res, "pre_fail_gbps")
	if pre < 20 {
		t.Fatalf("pre-failure goodput %.1f Gbps, want a loaded fabric", pre)
	}
	if scalar(t, res, "lost_packets") == 0 {
		t.Fatal("a cut spine link lost no packets")
	}
	if scalar(t, res, "recovered") != 1 {
		t.Fatal("goodput never recovered after reconvergence")
	}
	if us := scalar(t, res, "recovery_us"); us <= 0 || us > 3000 {
		t.Fatalf("recovery took %.0fµs, want (0, 3000]", us)
	}
	if post := scalar(t, res, "post_fail_gbps"); post < 0.8*pre {
		t.Fatalf("post-recovery plateau %.1f Gbps vs pre-fail %.1f", post, pre)
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
