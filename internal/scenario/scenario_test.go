package scenario

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// A scenario is a value: the same assembly must produce byte-identical
// results run after run.
func mixScenario(seed int64) Scenario {
	return Scenario{
		Name:     "mix",
		Scheme:   mustScheme(PowerTCP),
		Seed:     seed,
		Topology: LeafSpineTopology{Leaves: 2, Spines: 2, ServersPerLeaf: 4},
		Traffic: []Traffic{
			RackPairs{FromRack: RackStart(0), ToRack: RackStart(1), Count: 2},
			WithScheme(Reno, IncastPulse{
				At: 500 * sim.Microsecond, Receiver: Host(0), FanIn: 3, FlowSize: 200_000,
			}),
		},
		Events: Timeline{
			Events: []Event{
				LinkFail{At: sim.Millisecond, A: Leaf(0), B: Spine(0)},
				LinkRestore{At: 2 * sim.Millisecond, A: Leaf(0), B: Spine(0)},
			},
			Reconverge: 100 * sim.Microsecond,
		},
		Probes: []Probe{
			&GoodputProbe{Period: 50 * sim.Microsecond},
			&QueueProbe{Switch: Leaf(0), Port: 4, Period: 50 * sim.Microsecond},
			FCTProbe{},
		},
		Until: 3 * sim.Millisecond,
	}
}

func mustScheme(name string) Scheme {
	s, err := ResolveScheme(name)
	if err != nil {
		panic(err)
	}
	return s
}

// The composed scenario — two traffic classes under different schemes,
// an incast pulse during a failover timeline — was impossible to
// express through the flat Spec; here it is one value.
func TestComposedScenarioRunsAndIsDeterministic(t *testing.T) {
	encode := func() []byte {
		r, err := Run(mixScenario(3))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Fatal("identical scenarios produced different results")
	}

	r, err := Run(mixScenario(3))
	if err != nil {
		t.Fatal(err)
	}
	if r.Scalar("engine_steps") == 0 {
		t.Fatal("no engine steps recorded")
	}
	if r.Scalar("completed") < 3 {
		t.Fatalf("incast pulse flows did not complete: %v", r.Scalar("completed"))
	}
	if len(r.Series) < 3 {
		t.Fatalf("probes emitted %d series, want goodput+queue+fct", len(r.Series))
	}
	if r.Scalar("goodput_gbps_avg") <= 0 {
		t.Fatal("goodput probe recorded nothing")
	}
}

// The composition layer rides the zero-allocation hot path: what a run
// allocates is set-up and results, not per-event work. A per-packet or
// per-ACK allocation anywhere under Run puts the ratio near 1.
func TestComposedScenarioAllocsPerEvent(t *testing.T) {
	var steps float64
	allocs := testing.AllocsPerRun(3, func() {
		r, err := Run(mixScenario(3))
		if err != nil {
			t.Fatal(err)
		}
		steps = r.Scalar("engine_steps")
	})
	if got := allocs / steps; got > 0.02 {
		t.Fatalf("%.0f allocs over %.0f events = %.4f allocs/event, want ≤ 0.02", allocs, steps, got)
	}
}

// Traffic classes run under their own scheme: a Reno class on a
// PowerTCP fabric must behave differently than the same flows under the
// base scheme.
func TestTrafficClassSchemeChangesBehavior(t *testing.T) {
	base := func(class Traffic) *Result {
		r, err := Run(Scenario{
			Scheme:   mustScheme(PowerTCP),
			Seed:     5,
			Topology: FatTreeTopology{ServersPerTor: 4},
			Traffic: []Traffic{
				Flows{List: []FlowSpec{{Src: HostFromEnd(1), Dst: Host(0), Size: Unbounded}}},
				class,
			},
			Probes: []Probe{FCTProbe{}},
			Until:  2 * sim.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	pulse := IncastPulse{At: 200 * sim.Microsecond, Receiver: Host(0), FanIn: 4, FlowSize: 300_000,
		Senders: Span{From: RackStart(1), To: HostFromEnd(1)}}
	same := base(pulse)
	reno := base(WithScheme(Reno, pulse))
	var sb, rb bytes.Buffer
	if err := same.EncodeJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if err := reno.EncodeJSON(&rb); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(sb.Bytes(), rb.Bytes()) {
		t.Fatal("Reno traffic class produced results identical to the base scheme")
	}
}

func TestTrafficClassValidation(t *testing.T) {
	run := func(baseName, className string) error {
		_, err := Run(Scenario{
			Scheme:   mustScheme(baseName),
			Seed:     1,
			Topology: FatTreeTopology{ServersPerTor: 4},
			Traffic: []Traffic{WithScheme(className,
				Flows{List: []FlowSpec{{Src: Host(8), Dst: Host(0), Size: 100_000}}})},
			Probes: []Probe{FCTProbe{}},
			Until:  sim.Millisecond,
		})
		return err
	}
	if err := run(PowerTCP, Homa); err == nil || !strings.Contains(err.Error(), "per-flow algorithm") {
		t.Fatalf("HOMA traffic class accepted: %v", err)
	}
	if err := run(Homa, Reno); err == nil || !strings.Contains(err.Error(), "HOMA") {
		t.Fatalf("traffic class on a HOMA fabric accepted: %v", err)
	}
	if err := run(Reno, HPCC); err == nil || !strings.Contains(err.Error(), "INT") {
		t.Fatalf("INT-requiring class on a non-INT fabric accepted: %v", err)
	}
	if err := run(Reno, DCQCN); err == nil || !strings.Contains(err.Error(), "ECN") {
		t.Fatalf("ECN-requiring class on a non-ECN fabric accepted: %v", err)
	}
	// Both schemes mark, but with different RED profiles: the fabric can
	// only be built with one, so the mismatch must error too.
	if err := run(DCQCN, DCTCP); err == nil || !strings.Contains(err.Error(), "ECN") {
		t.Fatalf("ECN class with a mismatched marking profile accepted: %v", err)
	}
	if err := run(PowerTCP, Reno); err != nil {
		t.Fatalf("compatible traffic class rejected: %v", err)
	}
}

// An incast pulse whose sender pool is empty must error, not "run" a
// scenario that measures nothing (the default span skips the
// receiver's rack, which on a single-switch fabric is every host).
func TestIncastPulseNeedsSenders(t *testing.T) {
	_, err := Run(Scenario{
		Scheme:   mustScheme(PowerTCP),
		Topology: StarTopology{Hosts: 8},
		Traffic:  []Traffic{IncastPulse{Receiver: Host(0), FanIn: 4, FlowSize: 100_000}},
		Probes:   []Probe{FCTProbe{}},
		Until:    sim.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "no eligible senders") {
		t.Fatalf("senderless incast pulse accepted: %v", err)
	}
	// An unset receiver is an unset reference, not host 0.
	_, err = Run(Scenario{
		Scheme:   mustScheme(PowerTCP),
		Topology: FatTreeTopology{ServersPerTor: 4},
		Traffic:  []Traffic{IncastPulse{FanIn: 4, FlowSize: 100_000}},
		Probes:   []Probe{FCTProbe{}},
		Until:    sim.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "unset host reference") {
		t.Fatalf("unset receiver accepted: %v", err)
	}
}

// InjectTraffic is the declarative load step: a second Poisson class
// joining mid-run must add flows after the step instant only.
func TestInjectTrafficLoadStep(t *testing.T) {
	run := func(step bool) *Result {
		sc := Scenario{
			Scheme:   mustScheme(PowerTCP),
			Seed:     7,
			Topology: FatTreeTopology{ServersPerTor: 4},
			Traffic: []Traffic{
				PoissonLoad{Load: 0.1, Horizon: 2 * sim.Millisecond},
			},
			Probes: []Probe{FCTProbe{}},
			Until:  3 * sim.Millisecond,
		}
		if step {
			sc.Events.Events = append(sc.Events.Events, InjectTraffic{
				At: sim.Millisecond,
				Traffic: PoissonLoad{Load: 0.3, Horizon: sim.Millisecond,
					SeedOffset: 11},
			})
		}
		r, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	flat := run(false)
	stepped := run(true)
	if stepped.Scalar("started") <= flat.Scalar("started") {
		t.Fatalf("load step added no flows: %v vs %v",
			stepped.Scalar("started"), flat.Scalar("started"))
	}
}

func TestCwndProbeRecordsTrajectory(t *testing.T) {
	r, err := Run(Scenario{
		Scheme:   mustScheme(PowerTCP),
		Seed:     1,
		Topology: StarTopology{Hosts: 3},
		Traffic: []Traffic{Flows{List: []FlowSpec{
			{Src: Host(1), Dst: Host(0), Size: 2 << 20},
			{Src: Host(2), Dst: Host(0), Size: 2 << 20},
		}}},
		Probes: []Probe{&CwndProbe{FlowIndex: 1, Every: 10 * sim.Microsecond}},
		Until:  2 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var cwnd *Series
	for i := range r.Series {
		if r.Series[i].Name == "flow1_cwnd_bytes" {
			cwnd = &r.Series[i]
		}
	}
	if cwnd == nil || len(cwnd.Points) == 0 {
		t.Fatalf("cwnd probe recorded nothing: %+v", r.Series)
	}
}

func TestScenarioErrors(t *testing.T) {
	base := func() Scenario {
		return Scenario{
			Scheme:   mustScheme(PowerTCP),
			Topology: StarTopology{Hosts: 4},
			Until:    sim.Millisecond,
		}
	}

	if _, err := Run(Scenario{Scheme: mustScheme(PowerTCP)}); err == nil {
		t.Fatal("scenario without topology accepted")
	}

	sc := base()
	sc.Until = 0
	if _, err := Run(sc); err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Fatalf("scenario without horizon accepted: %v", err)
	}

	sc = base()
	sc.Events.Events = []Event{LinkFail{At: 1, A: Leaf(0), B: Spine(0)}}
	if _, err := Run(sc); err == nil {
		t.Fatal("leaf/spine link event on a star accepted")
	}

	sc = base()
	sc.Traffic = []Traffic{Flows{List: []FlowSpec{{Src: Host(9), Dst: Host(0), Size: 1}}}}
	if _, err := Run(sc); err == nil || !strings.Contains(err.Error(), "host reference") {
		t.Fatalf("out-of-range host reference accepted: %v", err)
	}

	sc = base()
	sc.Probes = []Probe{&QueueProbe{Switch: SwitchIndex(0), Port: 99, Period: sim.Microsecond}}
	if _, err := Run(sc); err == nil || !strings.Contains(err.Error(), "port") {
		t.Fatalf("out-of-range queue port accepted: %v", err)
	}

	sc = base()
	sc.Scheme = mustScheme(Homa)
	sc.Probes = []Probe{&CwndProbe{}}
	if _, err := Run(sc); err == nil || !strings.Contains(err.Error(), "HOMA") {
		t.Fatalf("cwnd probe on HOMA accepted: %v", err)
	}

	if _, err := Run(Scenario{
		Scheme:   mustScheme(PowerTCP),
		Topology: RotorTopology{Tors: 4, ServersPerTor: 2, Weeks: 1},
		Traffic: []Traffic{WithScheme(Reno,
			RackPairs{FromRack: RackStart(0), ToRack: RackStart(1)})},
	}); err == nil || !strings.Contains(err.Error(), "rotor") {
		t.Fatal("traffic-class scheme on the rotor topology accepted")
	}
}

// Schemes the fabric cannot drive error instead of crashing or
// silently substituting another algorithm.
func TestSchemeFabricMismatches(t *testing.T) {
	// reTCP has no per-flow algorithm builder: switched topologies must
	// reject it up front, not crash on a nil function.
	re, err := ResolveScheme("retcp-600")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Scenario{
		Scheme:   re,
		Topology: StarTopology{Hosts: 3},
		Traffic:  []Traffic{Flows{List: []FlowSpec{{Src: Host(1), Dst: Host(0), Size: 1000}}}},
		Until:    sim.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "per-flow algorithm") {
		t.Fatalf("reTCP on a switched topology accepted: %v", err)
	}

	// The rotor topology only supports the Fig. 8 competitors; anything
	// else used to fall back to HPCC silently.
	_, err = Run(Scenario{
		Scheme:   mustScheme(Timely),
		Topology: RotorTopology{Tors: 4, ServersPerTor: 2, Weeks: 1},
		Traffic:  []Traffic{RackPairs{FromRack: RackStart(0), ToRack: RackStart(1)}},
	})
	if err == nil || !strings.Contains(err.Error(), "does not support") {
		t.Fatalf("rotor accepted timely: %v", err)
	}
}

// Out-of-range traffic selectors and tier-overflowing switch
// references return errors instead of panicking or silently naming a
// switch of the wrong tier.
func TestRangeValidation(t *testing.T) {
	_, err := Run(Scenario{
		Scheme:   mustScheme(PowerTCP),
		Topology: StarTopology{Hosts: 4},
		Traffic: []Traffic{Staggered{Receiver: Host(0), FirstSender: Host(1),
			Count: 6, Stagger: sim.Millisecond, Sizes: []int64{1 << 20}}},
		Until: sim.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "senders") {
		t.Fatalf("overflowing staggered sender range accepted: %v", err)
	}

	_, err = Run(Scenario{
		Scheme:   mustScheme(PowerTCP),
		Topology: LeafSpineTopology{Leaves: 2, Spines: 2, ServersPerLeaf: 4},
		Traffic:  []Traffic{RackPairs{FromRack: Host(6), ToRack: RackStart(1)}},
		Until:    sim.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "rack pairs") {
		t.Fatalf("overflowing rack pair range accepted: %v", err)
	}

	// Self-flows corrupt probes silently: every component that could
	// hairpin a host to itself must refuse to.
	selfFlows := []Traffic{
		Flows{List: []FlowSpec{{Src: Host(2), Dst: Host(2), Size: 1000}}},
		Staggered{Receiver: Host(2), FirstSender: Host(1), Count: 3,
			Stagger: sim.Millisecond, Sizes: []int64{1 << 20}},
	}
	for _, tr := range selfFlows {
		_, err = Run(Scenario{
			Scheme:   mustScheme(PowerTCP),
			Topology: StarTopology{Hosts: 4},
			Traffic:  []Traffic{tr},
			Until:    sim.Millisecond,
		})
		if err == nil || !(strings.Contains(err.Error(), "itself") || strings.Contains(err.Error(), "includes the receiver")) {
			t.Fatalf("self-flow component %T accepted: %v", tr, err)
		}
	}
	_, err = Run(Scenario{
		Scheme:   mustScheme(PowerTCP),
		Topology: LeafSpineTopology{Leaves: 2, Spines: 2, ServersPerLeaf: 4},
		Traffic:  []Traffic{RackPairs{FromRack: RackStart(1), ToRack: RackStart(1)}},
		Until:    sim.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "itself") {
		t.Fatalf("same-rack rack pairs accepted: %v", err)
	}

	// Leaf(2) on a 2-leaf fabric is spine 0's index — it must error, not
	// cut a spine's link.
	_, err = Run(Scenario{
		Scheme:   mustScheme(PowerTCP),
		Topology: LeafSpineTopology{Leaves: 2, Spines: 2, ServersPerLeaf: 4},
		Events: Timeline{Events: []Event{
			LinkFail{At: sim.Millisecond, A: Leaf(2), B: Spine(0)},
		}},
		Until: 2 * sim.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "leaf switch 2 out of range") {
		t.Fatalf("tier-overflowing Leaf reference accepted: %v", err)
	}
	_, err = Run(Scenario{
		Scheme:   mustScheme(PowerTCP),
		Topology: FatTreeTopology{ServersPerTor: 4},
		Probes:   []Probe{&QueueProbe{Switch: Tor(8), Period: sim.Microsecond}},
		Until:    sim.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "ToR switch 8 out of range") {
		t.Fatalf("tier-overflowing Tor reference accepted: %v", err)
	}
}

// RotorTopology derives its horizon from Weeks; a stray Until must not
// truncate or extend the run (the documented contract).
func TestRotorHorizonIgnoresUntil(t *testing.T) {
	run := func(until sim.Duration) []byte {
		r, err := Run(Scenario{
			Scheme:   mustScheme(PowerTCP),
			Seed:     1,
			Topology: RotorTopology{Tors: 4, ServersPerTor: 2, Weeks: 1},
			Traffic:  []Traffic{RackPairs{FromRack: RackStart(0), ToRack: RackStart(1)}},
			Until:    until,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(0), run(50*sim.Microsecond)) {
		t.Fatal("Until changed a rotor run's horizon")
	}
}

// A rotor fabric is a lab like the other three, so a rotor run has what
// every lab has: the byte ledger balances mid-run and at the horizon —
// with whatever a reTCP prebuffer has parked in a VOQ counted as queued —
// and finite flows leave FCT records.
func TestRotorInheritsCommonLayer(t *testing.T) {
	for _, name := range []string{PowerTCP, HPCC, ReTCP600, ReTCP1800} {
		t.Run(name, func(t *testing.T) {
			p, err := Prepare(Scenario{
				Scheme:   mustScheme(name),
				Seed:     1,
				Topology: RotorTopology{Tors: 4, ServersPerTor: 2, Weeks: 2},
				Traffic: []Traffic{
					RackPairs{FromRack: RackStart(0), ToRack: RackStart(1)},
					Flows{List: []FlowSpec{
						{Src: RackHost(2, 0), Dst: RackHost(3, 1), Size: 200_000},
						{Src: RackHost(3, 0), Dst: RackHost(0, 1), Size: 50_000, Start: sim.Time(100 * sim.Microsecond)},
					}},
				},
				Probes: []Probe{AccountingProbe{}, FCTProbe{}},
			})
			if err != nil {
				t.Fatal(err)
			}
			// Seven checkpoints, so that each scheme is read at least once
			// with payload queued or on a wire (reTCP senders spend whole
			// slots waiting on ACKs parked in a VOQ).
			var inFlight int64
			var live uint64
			for i := sim.Time(1); i <= 7; i++ {
				p.DriveTo(p.Horizon() * i / 7)
				a := p.Env().Accounting()
				if a.Emitted == 0 || a.Residual() != 0 || a.Dropped != 0 {
					t.Fatalf("ledger at %v: %+v, residual %d", p.Env().Eng().Now(), a, a.Residual())
				}
				inFlight = max(inFlight, a.InFlight())
				live = max(live, p.LivePackets())
			}
			if inFlight == 0 || live == 0 {
				t.Fatalf("no checkpoint saw payload in flight (%d B) or a live pooled packet (%d): the test reads nothing", inFlight, live)
			}
			res, err := p.Finish()
			p.Release()
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Scalar("completed"); got != 2 {
				t.Fatalf("completed = %v, want the two finite flows", got)
			}
			if got, ok := res.Scalars["bytes_residual"]; !ok || got != 0 {
				t.Fatalf("bytes_residual = %v (present %v), want 0", got, ok)
			}
		})
	}

	// Zero Tors/ServersPerTor keep the paper's 25 × 10: selectors resolve
	// against the fabric that was built, not against the zeros.
	res, err := Run(Scenario{
		Scheme:   mustScheme(PowerTCP),
		Topology: RotorTopology{Weeks: 1},
		Traffic: []Traffic{Flows{List: []FlowSpec{
			{Src: RackHost(24, 9), Dst: RackHost(0, 0), Size: 20_000},
		}}},
		Probes: []Probe{FCTProbe{}},
	})
	if err != nil || res.Scalar("completed") != 1 {
		t.Fatalf("default-sized rotor: completed %v, err %v", res.Scalar("completed"), err)
	}
}

// Host and rack references resolve relative to the fabric.
func TestHostRefResolution(t *testing.T) {
	f := Fabric{Hosts: 32, Racks: 8, HostsPerRack: 4}
	cases := []struct {
		ref  HostRef
		want int
	}{
		{Host(3), 3},
		{HostFromEnd(1), 31},
		{RackStart(2), 8},
		{RackHost(7, 3), 31},
	}
	for _, c := range cases {
		got, err := c.ref.Resolve(f)
		if err != nil || got != c.want {
			t.Fatalf("%+v resolved to %d, %v; want %d", c.ref, got, err, c.want)
		}
	}
	if _, err := Host(32).Resolve(f); err == nil {
		t.Fatal("out-of-range host resolved")
	}
}

// The permutation component must derive the same trace as the workload
// helper and never map a host to itself.
func TestPermutationTraffic(t *testing.T) {
	f := Fabric{Hosts: 16, Racks: 4, HostsPerRack: 4}
	flows, err := Permutation{}.generate(f, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 16 {
		t.Fatalf("generated %d flows", len(flows))
	}
	perm := workload.Permutation(16, 9)
	for i, fl := range flows {
		if fl.Src == fl.Dst {
			t.Fatalf("flow %d maps host %d to itself", i, fl.Src)
		}
		if fl.Dst != perm[i] {
			t.Fatalf("flow %d diverges from workload.Permutation", i)
		}
	}
}
