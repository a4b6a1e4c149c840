package scenario

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/units"
	"repro/internal/workload"
)

// Scenario is a declarative experiment: a fabric, the traffic offered
// on it, a timeline of mid-run events, and the probes that turn the run
// into a Result. Build one from the typed axis values and execute it
// with Run. Scenarios are single-use: probes accumulate run state, so
// construct a fresh value (presets do) for every run.
type Scenario struct {
	// Name labels the Result (the experiment registry overwrites it with
	// the registered name).
	Name string
	// Scheme is the base congestion-control scheme: it decides the host
	// transport and the switch features (INT, ECN, priority queues) the
	// fabric is built with. Traffic components may override the per-flow
	// algorithm via WithScheme.
	Scheme Scheme
	// Seed drives all workload and switch randomness.
	Seed int64
	// Topology describes the fabric.
	Topology Topology
	// Traffic components are generated and launched in order.
	Traffic []Traffic
	// Events is the mid-run timeline (link failures, injected traffic).
	Events Timeline
	// Probes sample the run and write into the Result envelope.
	Probes []Probe
	// Until is the run horizon. RotorTopology derives its own horizon
	// (Weeks rotor weeks) and ignores it.
	Until sim.Duration
}

// Fabric is the topology metadata traffic selectors resolve against:
// host counts, rack geometry, and the uplink capacity the offered-load
// components are defined over.
type Fabric struct {
	Hosts        int
	Racks        int
	HostsPerRack int
	// UplinkCapPerRack is the aggregate rack-uplink bandwidth the
	// Poisson load is offered against (0 for single-switch fabrics).
	UplinkCapPerRack units.BitRate
	// UnboundedSize is the scheme-appropriate "runs past any window"
	// flow size the Unbounded sentinel resolves to.
	UnboundedSize int64
}

// Unbounded marks a traffic component's flow as endless background
// traffic; launch resolves it to the scheme-appropriate size.
const Unbounded int64 = -1

// HostRef names a host relative to the fabric, so traffic components
// stay valid across topology scales. It is its own wire form: Kind is
// "host", "from_end", "rack_start" or "rack_host", and the constructors
// marshal as {"kind":"host","i":3}, {"kind":"from_end","i":1},
// {"kind":"rack_start","rack":2} and {"kind":"rack_host","rack":5,"i":1}.
// The zero HostRef is unset — it does not name host 0 — so forgetting a
// selector errors instead of silently targeting the first host, and
// optional references (Span.To) can tell "absent" from Host(0).
type HostRef struct {
	Kind string `json:"kind"`
	Rack int    `json:"rack,omitempty"`
	I    int    `json:"i,omitempty"`
}

// Host references host i (absolute index).
func Host(i int) HostRef { return HostRef{Kind: "host", I: i} }

// HostFromEnd references the i-th host from the end (1 = last host).
func HostFromEnd(i int) HostRef { return HostRef{Kind: "from_end", I: i} }

// RackStart references the first host of rack r.
func RackStart(r int) HostRef { return HostRef{Kind: "rack_start", Rack: r} }

// RackHost references host i of rack r.
func RackHost(r, i int) HostRef { return HostRef{Kind: "rack_host", Rack: r, I: i} }

// Resolve returns the absolute host index of the reference. Rack-based
// references are bounds-checked against their own rack, so RackHost(0,
// perRack) errors instead of silently naming the first host of rack 1.
func (h HostRef) Resolve(f Fabric) (int, error) {
	var idx int
	switch h.Kind {
	case "":
		return 0, fmt.Errorf("scenario: unset host reference (use Host/HostFromEnd/RackStart/RackHost)")
	case "host":
		idx = h.I
	case "from_end":
		idx = f.Hosts - h.I
	case "rack_start", "rack_host":
		if h.Rack < 0 || h.Rack >= f.Racks {
			return 0, fmt.Errorf("scenario: host reference names rack %d, fabric has %d racks", h.Rack, f.Racks)
		}
		idx = h.Rack * f.HostsPerRack
		if h.Kind == "rack_host" {
			if h.I < 0 || h.I >= f.HostsPerRack {
				return 0, fmt.Errorf("scenario: host reference names host %d of rack %d, racks hold %d hosts",
					h.I, h.Rack, f.HostsPerRack)
			}
			idx += h.I
		}
	default:
		return 0, fmt.Errorf("scenario: unknown host reference kind %q", h.Kind)
	}
	if idx < 0 || idx >= f.Hosts {
		return 0, fmt.Errorf("scenario: host reference resolves to %d, fabric has %d hosts", idx, f.Hosts)
	}
	return idx, nil
}

// Span is a half-open host range [From, To). An unset To (the zero
// HostRef) means end-of-hosts; an unset From makes the whole Span
// absent, and a To without a From is an error.
type Span struct {
	From, To HostRef
}

// SwitchRef names a switch by its topology role, resolved against the
// concrete fabric's switch tiers: Leaf/Spine on a leaf-spine, Tor/Agg/Core
// on a fat-tree, SwitchIndex anywhere. It is its own wire form, Tier being
// "leaf", "spine", "tor", "agg", "core" or "index": Leaf(0) marshals as
// {"tier":"leaf","i":0}. The zero SwitchRef is unset and names no switch.
type SwitchRef struct {
	Tier string `json:"tier"`
	I    int    `json:"i"`
}

// SwitchIndex references switch i of the built network directly.
func SwitchIndex(i int) SwitchRef { return SwitchRef{Tier: "index", I: i} }

// Leaf references leaf switch i of a leaf-spine fabric.
func Leaf(i int) SwitchRef { return SwitchRef{Tier: "leaf", I: i} }

// Spine references spine switch i of a leaf-spine fabric.
func Spine(i int) SwitchRef { return SwitchRef{Tier: "spine", I: i} }

// Tor references ToR switch i of a fat-tree.
func Tor(i int) SwitchRef { return SwitchRef{Tier: "tor", I: i} }

// Agg references aggregation switch i of a fat-tree.
func Agg(i int) SwitchRef { return SwitchRef{Tier: "agg", I: i} }

// Core references core switch i of a fat-tree.
func Core(i int) SwitchRef { return SwitchRef{Tier: "core", I: i} }

// switchTier is a run of a fabric's switches one SwitchRef tier names:
// switches [first, first+count) of the built network. label is the word
// the tier's errors use.
type switchTier struct {
	name, label  string
	first, count int
}

// resolveSwitch returns the network index of the switch ref names, from
// the tiers the fabric's build recorded on the lab. An "index" reference
// passes through as given: callers bound-check every index against the
// network.
func (env *Env) resolveSwitch(ref SwitchRef) (int, error) {
	switch ref.Tier {
	case "":
		return 0, fmt.Errorf("scenario: unset switch reference (use SwitchIndex/Leaf/Spine/Tor/Agg/Core)")
	case "index":
		return ref.I, nil
	case "leaf", "spine", "tor", "agg", "core":
	default:
		return 0, fmt.Errorf("scenario: unknown switch tier %q", ref.Tier)
	}
	for _, t := range env.Lab.tiers {
		if t.name == ref.Tier {
			if ref.I < 0 || ref.I >= t.count {
				return 0, fmt.Errorf("scenario: %s switch %d out of range (fabric has %d)", t.label, ref.I, t.count)
			}
			return t.first + ref.I, nil
		}
	}
	return 0, fmt.Errorf("scenario: %s switch reference not valid on a %s", ref.Tier, env.Lab.fabric)
}

// Topology describes the fabric axis of a Scenario. Implementations
// build the network and fill the Env's fabric metadata.
type Topology interface {
	build(env *Env) error
}

// resolveRouting turns a strategy name into a route.Strategy ("" keeps
// the fabric's per-flow ECMP default).
func resolveRouting(name string) (route.Strategy, error) {
	if name == "" {
		return nil, nil
	}
	return route.StrategyByName(name)
}

// StarTopology is n hosts on one switch — the minimal shared-bottleneck
// fabric (fairness, microbenchmarks) — at topo.Star's 25 Gbps.
type StarTopology struct {
	Hosts int
}

func (t StarTopology) build(env *Env) error {
	if t.Hosts < 2 {
		return fmt.Errorf("scenario: star topology needs ≥2 hosts, got %d", t.Hosts)
	}
	env.Lab = newLab(env.Scheme, env.Seed, nil, transport.Config{BaseRTT: 12 * sim.Microsecond}, t.Hosts,
		func(o topo.Options) *topo.Network {
			return topo.Star(topo.StarConfig{Hosts: t.Hosts, Opts: o})
		})
	env.Lab.fabric = "star"
	env.Fabric = Fabric{
		Hosts:         t.Hosts,
		Racks:         1,
		HostsPerRack:  t.Hosts,
		UnboundedSize: env.Lab.UnboundedSize(),
	}
	return nil
}

// FatTreeTopology is the paper's §4.1 oversubscribed fat-tree scaled by
// ServersPerTor (default 8; 32 is paper scale).
type FatTreeTopology struct {
	ServersPerTor int
	// Routing selects the multipath strategy by name ("", "ecmp",
	// "single", "wecmp"); empty keeps per-flow ECMP.
	Routing string
	// Partitions is how many workers drive the fabric (see shardPlan);
	// output is byte-identical at any count. The shards are the fabric's
	// own, one engine a pod (internal/psim). A fabric of podShardHosts
	// hosts or more runs on them at any count, a smaller one when
	// Partitions > 1. 0 or 1 is the calling goroutine alone; W > 1 deals
	// the pods to W goroutines, never more than there are pods.
	Partitions int
	// Pods, TorsPerPod, AggsPerPod and Cores override the paper's 4-pod
	// structure (0 keeps each default) — the scale benchmarks build
	// multi-pod 10k-host fabrics through these.
	Pods       int
	TorsPerPod int
	AggsPerPod int
	Cores      int

	// singleEngine keeps a fabric of any size on one engine. Only tests
	// set it (export_test.go): the determinism suites need a leg that is
	// not sharded to compare the sharded ones with.
	singleEngine bool
}

// podShardHosts is the size from which a fat-tree runs pod by pod
// whatever Partitions says (shardPlan). One time-ordered queue makes
// consecutive events touch unrelated hosts, so a large fabric's ports,
// FIFOs, packets and table rows are cycled through the cache once per
// packet time; one
// engine a pod, each advanced a lookahead window (a core link's 5 µs) at a
// time, lets a pod's events run together. On one core a 10,240-host
// fabric's events, the same ones in the same canonical order, cost
// 565–683 ns each on one engine and 289–290 ns on sixteen pods.
//
// The constant is a judgement on seven sweeps of one engine against pod
// shards, 64 to 10,240 hosts, under permutation and web-search traffic
// (PERF.md "PR 19"). Permutation traffic, which keeps every host busy,
// is faster pod by pod from 256 hosts up, by a fifth and more from 512;
// web-search traffic, which keeps few busy at once, cannot tell the two
// apart through 640 hosts on four pods and gains from 1,280. What a
// shard costs is fixed — an engine's wheel, a mailbox a shard pair — so
// against what a pass allocates it falls with size: a half more at 128
// hosts, a fifth at 384, a tenth at 512. Leaf-spine and star fabrics are
// left alone: no workload in the repository has a large one to sweep.
const podShardHosts = 512

// shardPlan is the one place a run's shards are decided. A fabric runs
// on its own plan when it is large (a fat-tree of podShardHosts hosts or
// more) or when partitions asks for more than one worker; otherwise it
// runs on one engine (nil, the one-shard plan). On its plan,
// max(1, partitions) workers step the shards, never more than there are
// shards (internal/psim). The shard count is the fabric's alone.
func shardPlan(large bool, partitions int, plan func() *topo.Plan) *topo.Plan {
	if !large && partitions <= 1 {
		return nil
	}
	pl := plan()
	pl.Workers = max(1, partitions)
	return pl
}

func (t FatTreeTopology) build(env *Env) error {
	// Structural dims are validated here, not panicked on downstream: the
	// fuzzlab shrinker legitimately drives them through zero and below.
	for _, d := range []struct {
		name string
		v    int
	}{
		{"ServersPerTor", t.ServersPerTor}, {"Partitions", t.Partitions},
		{"Pods", t.Pods}, {"TorsPerPod", t.TorsPerPod},
		{"AggsPerPod", t.AggsPerPod}, {"Cores", t.Cores},
	} {
		if d.v < 0 {
			return fmt.Errorf("scenario: fat-tree %s %d is negative", d.name, d.v)
		}
	}
	strategy, err := resolveRouting(t.Routing)
	if err != nil {
		return err
	}
	spt := t.ServersPerTor
	if spt == 0 {
		spt = 8
	}
	cfg := topo.FatTreeConfig{
		Pods:          t.Pods,
		TorsPerPod:    t.TorsPerPod,
		AggsPerPod:    t.AggsPerPod,
		Cores:         t.Cores,
		ServersPerTor: spt,
	}.WithDefaults()
	var plan *topo.Plan
	if !t.singleEngine {
		plan = shardPlan(cfg.Racks()*cfg.ServersPerTor >= podShardHosts, t.Partitions, cfg.Partitions)
	}
	env.Lab = newLab(env.Scheme, env.Seed, strategy, transport.Config{BaseRTT: 30 * sim.Microsecond},
		cfg.Racks()*cfg.ServersPerTor, func(o topo.Options) *topo.Network {
			o.Partition = plan
			cfg.Opts = o
			return topo.FatTree(cfg)
		})
	racks, aggs := cfg.Racks(), cfg.Pods*cfg.AggsPerPod
	env.Lab.fabric, env.Lab.tiers = "fat-tree", []switchTier{
		{"tor", "ToR", 0, racks},
		{"agg", "aggregation", racks, aggs},
		{"core", "core", racks + aggs, cfg.Cores},
	}
	env.Fabric = Fabric{
		Hosts:            racks * spt,
		Racks:            racks,
		HostsPerRack:     spt,
		UplinkCapPerRack: units.BitRate(cfg.AggsPerPod) * cfg.FabricRate,
		UnboundedSize:    env.Lab.UnboundedSize(),
	}
	return nil
}

// LeafSpineTopology is the two-tier Clos fabric, with optional per-spine
// rate asymmetry.
type LeafSpineTopology struct {
	Leaves, Spines, ServersPerLeaf int
	// SpineRates overrides the fabric rate per spine (asymmetric cores).
	SpineRates []units.BitRate
	// Routing selects the multipath strategy by name; empty keeps
	// per-flow ECMP.
	Routing string
	// Partitions is how many workers drive the fabric (see shardPlan);
	// output is byte-identical at any count. 0 or 1 is one engine on the
	// calling goroutine; W > 1 runs the fabric's own shards, one engine a
	// leaf with the spines dealt round them (internal/psim), on W
	// goroutines, never more than there are leaves.
	Partitions int
}

func (t LeafSpineTopology) build(env *Env) error {
	for _, d := range []struct {
		name string
		v    int
	}{
		{"Leaves", t.Leaves}, {"Spines", t.Spines},
		{"ServersPerLeaf", t.ServersPerLeaf}, {"Partitions", t.Partitions},
	} {
		if d.v < 0 {
			return fmt.Errorf("scenario: leaf-spine %s %d is negative", d.name, d.v)
		}
	}
	for i, r := range t.SpineRates {
		if r <= 0 {
			return fmt.Errorf("scenario: leaf-spine SpineRates[%d] rate %v is not positive", i, r)
		}
	}
	strategy, err := resolveRouting(t.Routing)
	if err != nil {
		return err
	}
	cfg := topo.LeafSpineConfig{
		Leaves:         t.Leaves,
		Spines:         t.Spines,
		ServersPerLeaf: t.ServersPerLeaf,
		SpineRates:     t.SpineRates,
	}
	plan := shardPlan(false, t.Partitions, cfg.Partitions)
	ls := cfg.WithDefaults()
	env.Lab = newLab(env.Scheme, env.Seed, strategy, transport.Config{BaseRTT: 16 * sim.Microsecond},
		ls.Leaves*ls.ServersPerLeaf, func(o topo.Options) *topo.Network {
			o.Partition = plan
			cfg.Opts = o
			return topo.LeafSpine(cfg)
		})
	env.Lab.LSCfg = ls
	env.Lab.fabric, env.Lab.tiers = "leaf-spine", []switchTier{
		{"leaf", "leaf", ls.LeafSwitch(0), ls.Leaves},
		{"spine", "spine", ls.SpineSwitch(0), ls.Spines},
	}
	var uplink units.BitRate
	for sp := 0; sp < ls.Spines; sp++ {
		uplink += ls.SpineRate(sp)
	}
	env.Fabric = Fabric{
		Hosts:            ls.Leaves * ls.ServersPerLeaf,
		Racks:            ls.Leaves,
		HostsPerRack:     ls.ServersPerLeaf,
		UplinkCapPerRack: uplink,
		UnboundedSize:    env.Lab.UnboundedSize(),
	}
	return nil
}

// RotorTopology is the reconfigurable DCN of §5: Tors racks (default
// 25) of ServersPerTor servers (default 10) joined by a rotating circuit
// switch plus a multi-hop packet network at PacketRate (default 25
// Gbps), built on the common port layer like every other fabric
// (topo.RotorFabric) — so it carries the byte ledger, FCT records,
// supervision and scratch recycling. The run horizon is Weeks rotor
// weeks (Scenario.Until is ignored). It runs the Fig. 8 competitors only
// (RotorSupports) and has no switch references: link events are refused,
// because the rotor's timeline and the control plane's Rebuild would
// both write the ToR tables.
type RotorTopology struct {
	Tors, ServersPerTor int
	PacketRate          units.BitRate
	Weeks               int
}

func (t RotorTopology) build(env *Env) error {
	if t.Weeks <= 0 {
		return fmt.Errorf("scenario: rotor topology needs Weeks ≥ 1")
	}
	if t.Tors < 0 || t.Tors == 1 {
		return fmt.Errorf("scenario: rotor topology needs ≥2 ToRs (0 keeps the default), got %d", t.Tors)
	}
	if t.ServersPerTor < 0 {
		return fmt.Errorf("scenario: rotor ServersPerTor %d is negative", t.ServersPerTor)
	}
	if t.PacketRate < 0 {
		return fmt.Errorf("scenario: rotor packet rate %v is negative", t.PacketRate)
	}
	if err := RotorSupports(env.Scheme); err != nil {
		return err
	}
	cfg := topo.RotorConfig{
		Tors:          t.Tors,
		ServersPerTor: t.ServersPerTor,
		PacketRate:    t.PacketRate,
		Prebuffer:     env.Scheme.PrebufferFor,
	}.WithDefaults()
	// Circuit day/night path flapping reorders packets: no fast
	// retransmit, rely on the RTO.
	host := transport.Config{BaseRTT: cfg.BaseRTT(), DupAckThreshold: -1}
	env.Lab = newLab(env.Scheme, env.Seed, nil, host, cfg.Tors*cfg.ServersPerTor, func(o topo.Options) *topo.Network {
		// The Fig. 8 fabric stamps INT at every egress whatever the scheme
		// — reTCP's packets would otherwise be shorter by their hop records
		// — and its ToR buffers are unbounded: a Tofino-sized pool under
		// Dynamic Thresholds would drop what an 1,800 µs prebuffer parks in
		// a VOQ.
		o.INT, o.BufferPerGbps = true, 0
		cfg.Opts = o
		return topo.RotorFabric(cfg)
	})
	env.Horizon = sim.Time(sim.Duration(t.Weeks) * cfg.Schedule().Week())
	env.Fabric = Fabric{
		Hosts:         cfg.Tors * cfg.ServersPerTor,
		Racks:         cfg.Tors,
		HostsPerRack:  cfg.ServersPerTor,
		UnboundedSize: env.Lab.UnboundedSize(),
	}
	return nil
}

// LaunchedFlow records one launched transfer: the generated flow plus
// the flow ID the transport assigned, in launch order. Probes use it to
// follow per-flow progress.
type LaunchedFlow struct {
	workload.Flow
	ID packet.FlowID
}
