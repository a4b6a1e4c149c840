package scenario_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/guard"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// wide is a 640-host, 4-pod fat-tree: above the size from which the
// fabric is built on its pod plan whatever Partitions says.
func wide(partitions int) scenario.FatTreeTopology {
	return scenario.FatTreeTopology{ServersPerTor: 80, Partitions: partitions}
}

func scheme(t *testing.T, name string) scenario.Scheme {
	t.Helper()
	s, err := scenario.ResolveScheme(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// busy is 240 staggered transfers of 5–245 KB, each to the far half of the
// fabric, and an incast pulse, over topo with a ToR–agg link failing and
// coming back, a queue sampled on the control engine every 2 µs — well
// inside one lookahead window — and flow completions collected from
// every shard.
func busy(t *testing.T, schemeName string, topo scenario.Topology) scenario.Scenario {
	us := func(n int64) sim.Duration { return sim.Duration(n) * sim.Microsecond }
	var flows []scenario.FlowSpec
	for i := 0; i < 240; i++ {
		src := i * 37 % 640
		flows = append(flows, scenario.FlowSpec{
			Start: sim.Time(i) * sim.Time(400*sim.Nanosecond),
			Src:   scenario.Host(src), Dst: scenario.Host((src + 320 + i) % 640),
			Size: 5_000 + 1_000*int64(i),
		})
	}
	return scenario.Scenario{
		Name:     "busy",
		Scheme:   scheme(t, schemeName),
		Seed:     9,
		Topology: topo,
		Traffic: []scenario.Traffic{
			scenario.Flows{List: flows},
			scenario.IncastPulse{At: us(10), Receiver: scenario.Host(3), FanIn: 12, FlowSize: 20_000},
		},
		Events: scenario.Timeline{
			Events: []scenario.Event{
				scenario.LinkFail{At: us(30), A: scenario.Tor(1), B: scenario.Agg(0)},
				scenario.LinkRestore{At: us(70), A: scenario.Tor(1), B: scenario.Agg(0)},
			},
			Reconverge: us(5),
		},
		Probes: []scenario.Probe{
			scenario.AccountingProbe{},
			&scenario.QueueProbe{Switch: scenario.Tor(0), Port: 80, Period: us(2)},
			scenario.FCTProbe{},
		},
		Until: us(120),
	}
}

func encode(t *testing.T, res *scenario.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// flowSlots returns the slots of the network's flow table.
func flowSlots(p *scenario.Prepared) int {
	return p.Env().Lab.Net.Flows.Len()
}

// drive runs p to its horizon and checks that no flow table grew on the
// way: every slot is reserved at launch, before any shard runs.
func drive(t *testing.T, p *scenario.Prepared) {
	t.Helper()
	slots := flowSlots(p)
	if slots <= p.Env().Lab.Started() {
		t.Fatalf("%d flows launched into a table of %d slots", p.Env().Lab.Started(), slots)
	}
	p.DriveTo(p.Horizon())
	if got := flowSlots(p); got != slots {
		t.Fatalf("the flow table grew from %d to %d slots during the drive", slots, got)
	}
}

// The determinism suites' large-fabric leg. "Partitions: 1" on this
// fabric is four shards on the caller's goroutine, so the reference is
// forced onto one engine; one worker and two must both reproduce its
// bytes and its completion records, flow by flow, under a window
// transport with INT, one with ECN marking, and HOMA's receiver-driven
// priorities.
func TestPodShardedMatchesSingleEngine(t *testing.T) {
	for _, name := range []string{scenario.PowerTCP, scenario.DCQCN, scenario.Homa} {
		t.Run(name, func(t *testing.T) {
			ref, err := scenario.Prepare(busy(t, name, scenario.SingleEngine(wide(1))))
			if err != nil {
				t.Fatal(err)
			}
			if n := len(ref.Env().Lab.Net.Engs); n != 1 {
				t.Fatalf("the reference leg is sharded over %d engines", n)
			}
			drive(t, ref)
			res, err := ref.Finish()
			if err != nil {
				t.Fatal(err)
			}
			want := encode(t, res)
			wantRecs := slices.Clone(ref.Env().Lab.Records)
			ref.Release()
			for _, r := range wantRecs {
				if r.ID == 0 || r.Src == r.Dst || r.FCT <= 0 || r.Start < 0 {
					t.Fatalf("record %+v does not name its flow", r)
				}
			}
			if res.Scalar("completed") < 12 || res.Scalar("engine_steps") < 100_000 {
				t.Fatalf("%v flows completed over %v events; the run tests nothing",
					res.Scalar("completed"), res.Scalar("engine_steps"))
			}

			for _, workers := range []int{1, 2} {
				p, err := scenario.Prepare(busy(t, name, wide(workers)))
				if err != nil {
					t.Fatal(err)
				}
				fab := p.Env().Lab.Net.PSim
				if len(p.Env().Lab.Net.Engs) != 4 || fab.Workers() != workers {
					t.Fatalf("Partitions %d: want 4 pod shards on %d workers", workers, workers)
				}
				drive(t, p)
				res, err := p.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if got := encode(t, res); !bytes.Equal(got, want) {
					t.Fatalf("W=%d diverged from the single engine\nsingle:  %.300s\nsharded: %.300s", workers, want, got)
				}
				if got := p.Env().Lab.Records; !slices.Equal(got, wantRecs) {
					t.Fatalf("W=%d: %d records differ from the single engine's %d", workers, len(got), len(wantRecs))
				}
				p.Release()
			}
		})
	}
}

// The rule's boundary: one host short of it a fat-tree asked for one
// partition is one engine, at it the fabric has an engine a pod and the
// caller for its only worker. Below it Partitions > 1 counts workers over
// the same shards, whatever the count: a 16-host, 4-pod fat-tree is 4
// engines on min(P, 4) workers at P = 2, 8 and 4,096, with the bytes of
// the one-engine run, and a 3-leaf leaf-spine is 3 engines at P = 2.
func TestPodShardBoundary(t *testing.T) {
	prepare := func(topo scenario.Topology, until sim.Duration) *scenario.Prepared {
		t.Helper()
		p, err := scenario.Prepare(scenario.Scenario{
			Scheme: scheme(t, scenario.PowerTCP), Seed: 3, Topology: topo,
			Traffic: []scenario.Traffic{scenario.Permutation{}},
			Probes:  []scenario.Probe{scenario.AccountingProbe{}},
			Until:   until,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	below := prepare(scenario.FatTreeTopology{Pods: 7, TorsPerPod: 1, AggsPerPod: 1, ServersPerTor: 73}, sim.Microsecond)
	defer below.Release()
	if n := below.Env().Fabric.Hosts; n != scenario.PodShardHosts-1 {
		t.Fatalf("the fabric below the rule has %d hosts, want %d: pick a new shape", n, scenario.PodShardHosts-1)
	}
	if n := len(below.Env().Lab.Net.Engs); n != 1 {
		t.Errorf("a %d-host fat-tree built %d engines", scenario.PodShardHosts-1, n)
	}
	at := prepare(scenario.FatTreeTopology{Pods: 8, TorsPerPod: 1, AggsPerPod: 1, ServersPerTor: 64}, sim.Microsecond)
	defer at.Release()
	if n := at.Env().Fabric.Hosts; n != scenario.PodShardHosts {
		t.Fatalf("the fabric at the rule has %d hosts, want %d: pick a new shape", n, scenario.PodShardHosts)
	}
	net := at.Env().Lab.Net
	if len(net.Engs) != 8 || net.PSim.Workers() != 1 {
		t.Errorf("a %d-host, 8-pod fat-tree: want 8 shards on 1 worker, got %d engines", scenario.PodShardHosts, len(net.Engs))
	}

	var want []byte
	for _, parts := range []int{1, 2, 8, 4096} {
		p := prepare(scenario.FatTreeTopology{ServersPerTor: 2, Partitions: parts}, 60*sim.Microsecond)
		engines, workers := 4, min(parts, 4)
		if parts == 1 {
			engines = 1
		}
		if net := p.Env().Lab.Net; len(net.Engs) != engines || net.PSim.Workers() != workers {
			t.Errorf("a 16-host, 4-pod fat-tree at Partitions %d: %d engines on %d workers, want %d on %d",
				parts, len(net.Engs), net.PSim.Workers(), engines, workers)
		}
		p.DriveTo(p.Horizon())
		res, err := p.Finish()
		if err != nil {
			t.Fatal(err)
		}
		got := encode(t, res)
		p.Release()
		if parts == 1 {
			if res.Scalar("bytes_delivered") <= 0 {
				t.Fatal("the 16-host run delivered nothing; it tests nothing")
			}
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("Partitions %d diverged from Partitions 1\none:  %.300s\nmany: %.300s", parts, want, got)
		}
	}

	ls := prepare(scenario.LeafSpineTopology{Leaves: 3, Spines: 2, ServersPerLeaf: 2, Partitions: 2}, sim.Microsecond)
	defer ls.Release()
	if net := ls.Env().Lab.Net; len(net.Engs) != 3 || net.PSim.Workers() != 2 {
		t.Errorf("a 3-leaf leaf-spine at Partitions 2: %d engines on %d workers, want 3 on 2", len(net.Engs), net.PSim.Workers())
	}
}

// A fluid component runs on the pod shards like any other: the coupler
// ticks on the control engine while every shard is paused. At one worker
// and at two the run reproduces the bytes recorded before large fabrics
// were sharded at all (the golden was recorded at the parent of that
// change).
func TestFluidRunsOnPodShards(t *testing.T) {
	host := func(i int) *scenario.HostRef { return &scenario.HostRef{Kind: "host", I: i} }
	sp := scenario.Spec{
		Name: "fluid-fattree512", Seed: 11, Scheme: "powertcp",
		Topo: scenario.TopoSpec{Kind: "fattree", ServersPerTor: 64},
		Traffic: []scenario.TrafficSpec{
			{Kind: "poisson", Load: 0.3, GenHorizonUS: 150, Fidelity: "fluid"},
			{Kind: "flows", Flows: []scenario.FlowEntry{
				{StartUS: 20, Src: host(1), Dst: host(300), Size: 123_451},
				{StartUS: 60, Src: host(130), Dst: host(10), Size: 61_211},
				{StartUS: 90, Src: host(500), Dst: host(64), Size: 30_603},
			}},
		},
		HorizonUS: 250,
	}
	path := filepath.Join("testdata", "golden", "fluid-fattree512.json")
	for _, workers := range []int{1, 2} {
		sc, err := sp.Build(workers)
		if err != nil {
			t.Fatal(err)
		}
		p, err := scenario.Prepare(sc)
		if err != nil {
			t.Fatal(err)
		}
		if n := p.Env().Fabric.Hosts; n < scenario.PodShardHosts {
			t.Fatalf("the fabric has %d hosts, under the rule's %d", n, scenario.PodShardHosts)
		}
		if fab := p.Env().Lab.Net.PSim; len(p.Env().Lab.Net.Engs) != 4 || fab.Workers() != workers {
			t.Fatalf("W=%d: a fabric with a fluid component was not sharded on %d workers", workers, workers)
		}
		p.DriveTo(p.Horizon())
		res, err := p.Finish()
		if err != nil {
			t.Fatal(err)
		}
		got := encode(t, res)
		p.Release()
		if res.Scalar("completed") != 3 || res.Scalar("fluid_bytes_emitted") <= 0 {
			t.Fatalf("W=%d: %v foreground flows completed over %v fluid bytes", workers, res.Scalar("completed"), res.Scalar("fluid_bytes_emitted"))
		}

		if workers == 1 && os.Getenv("POWERTCP_UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (regenerate with POWERTCP_UPDATE_GOLDEN=1): %v", err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("W=%d: output drifted from recorded golden %s (%d vs %d bytes)", workers, path, len(got), len(want))
		}
	}
}

// Budget trips are read at sim-time checkpoints off fabric-wide totals,
// so a sharded fabric trips at the checkpoint the single engine trips at,
// with the same watermark.
func TestGuardTripsAlikeOnPodShards(t *testing.T) {
	budgets := map[string]guard.Budget{
		"events":       {MaxEvents: 60_000, CheckEvery: 7 * sim.Microsecond},
		"sim_time":     {MaxSimTime: 33 * sim.Microsecond},
		"live_packets": {MaxLivePackets: 2_000, CheckEvery: 7 * sim.Microsecond},
	}
	for resource, b := range budgets {
		trip := func(topo scenario.Topology) guard.BudgetExceeded {
			t.Helper()
			sup := guard.Supervisor{Budget: b}
			res, err := sup.RunScenario(busy(t, scenario.PowerTCP, topo))
			var be *guard.BudgetExceeded
			if res != nil || !errors.As(err, &be) {
				t.Fatalf("%s: got (%v, %v), want *guard.BudgetExceeded", resource, res, err)
			}
			if be.Resource != resource || be.Backstop {
				t.Fatalf("%s: tripped on %+v", resource, *be)
			}
			return *be
		}
		want := trip(scenario.SingleEngine(wide(1)))
		for _, workers := range []int{1, 2} {
			if got := trip(wide(workers)); got != want {
				t.Errorf("%s, W=%d: sharded %+v, single engine %+v", resource, workers, got, want)
			}
		}
	}
}
