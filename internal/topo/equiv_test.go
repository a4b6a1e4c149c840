package topo

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/link"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/units"
)

// hostOracle is the per-host reference the edge-keyed tables must
// match: one BFS per destination host over the wired graph (swPeers, the
// ports' own cut state), the equal-cost candidates at every switch
// expanded by the strategy, and one entry per (switch, host). Like the
// router it keeps a switch's last entry when the switch has no path, so
// stale routes are compared too. It runs only when the router rebuilds.
type hostOracle struct {
	net      *Network
	strategy route.Strategy
	tables   [][][]int // per switch, per host
}

func newHostOracle(n *Network, strategy route.Strategy) *hostOracle {
	if strategy == nil {
		strategy = route.ECMP{}
	}
	o := &hostOracle{net: n, strategy: strategy, tables: make([][][]int, len(n.Switches))}
	for si := range o.tables {
		o.tables[si] = make([][]int, len(n.Hosts))
	}
	o.rebuild()
	return o
}

func (o *hostOracle) rebuild() {
	const inf = int(1e9)
	dist := make([]int, len(o.net.Switches))
	for h := range o.net.Hosts {
		tor := o.net.hostTor[h]
		for i := range dist {
			dist[i] = inf
		}
		dist[tor] = 1
		for frontier := []int{tor}; len(frontier) > 0; {
			var next []int
			for _, si := range frontier {
				for pi, peer := range o.net.swPeers[si] {
					if !peer.isHost && !o.port(si, pi).IsDown() && dist[peer.idx] == inf {
						dist[peer.idx] = dist[si] + 1
						next = append(next, peer.idx)
					}
				}
			}
			frontier = next
		}
		for si := range o.net.Switches {
			if si == tor {
				o.tables[si][h] = []int{slices.Index(o.net.swPeers[si], peerRef{isHost: true, idx: h})}
				continue
			}
			if dist[si] == inf {
				continue // partitioned: keep the stale entry
			}
			var cand []route.Candidate
			for pi, peer := range o.net.swPeers[si] {
				if !peer.isHost && !o.port(si, pi).IsDown() && dist[peer.idx] == dist[si]-1 {
					cand = append(cand, route.Candidate{Port: pi, Rate: o.port(si, pi).Rate})
				}
			}
			if ports := o.strategy.Expand(cand, nil); len(ports) > 0 {
				o.tables[si][h] = ports
			}
		}
	}
}

func (o *hostOracle) port(si, pi int) *link.Port { return o.net.Switches[si].Ports()[pi] }

// check compares every (switch, host) entry with the oracle's, in
// content and order.
func (o *hostOracle) check(t *testing.T, when string) {
	t.Helper()
	for si, sw := range o.net.Switches {
		for h := range o.net.Hosts {
			if got, want := sw.Route(o.net.HostID(h)), o.tables[si][h]; !slices.Equal(got, want) {
				t.Fatalf("%s: switch %d → host %d: table %v, per-host oracle %v", when, si, h, got, want)
			}
		}
	}
}

func equivOpts(strategy route.Strategy) Options {
	return Options{
		Hosts:   TransportHosts(transport.Config{BaseRTT: 30 * sim.Microsecond}),
		Routing: strategy,
	}
}

// Every fabric's edge-keyed tables resolve, for every (switch, host),
// to exactly the candidate list a per-host BFS computes, so keying by
// edge switch changes no hash choice.
func TestTablesMatchPerHostOracle(t *testing.T) {
	slow := []units.BitRate{100 * units.Gbps, 50 * units.Gbps, 25 * units.Gbps}
	bigTree := FatTreeConfig{ServersPerTor: 80, Opts: equivOpts(nil)}
	bigTree.Opts.Partition = bigTree.Partitions()
	fabrics := []struct {
		name     string
		strategy route.Strategy
		build    func(Options) *Network
	}{
		{"star", nil, func(o Options) *Network { return Star(StarConfig{Hosts: 5, Opts: o}) }},
		{"dumbbell", nil, func(o Options) *Network { return Dumbbell(DumbbellConfig{Left: 3, Right: 2, Opts: o}) }},
		{"parkinglot", nil, func(o Options) *Network { return ParkingLot(ParkingLotConfig{Switches: 4, Opts: o}) }},
		{"leafspine/wecmp", route.WeightedECMP{}, func(o Options) *Network {
			return LeafSpine(LeafSpineConfig{Leaves: 4, Spines: 3, ServersPerLeaf: 2, SpineRates: slow, Opts: o})
		}},
		{"fattree/single", route.SinglePath{}, func(o Options) *Network { return FatTree(FatTreeConfig{ServersPerTor: 3, Opts: o}) }},
		{"fattree/ecmp", route.ECMP{}, func(o Options) *Network { return FatTree(FatTreeConfig{ServersPerTor: 3, Opts: o}) }},
		{"fattree/wecmp", route.WeightedECMP{}, func(o Options) *Network { return FatTree(FatTreeConfig{ServersPerTor: 3, Opts: o}) }},
		{"fattree640/pods", nil, func(Options) *Network { return FatTree(bigTree) }},
	}
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			net := f.build(equivOpts(f.strategy))
			if f.name == "fattree640/pods" && (len(net.Hosts) < 640 || len(net.Engs) != 4) {
				t.Fatalf("%d hosts on %d shards, want ≥ 640 on the 4 pods", len(net.Hosts), len(net.Engs))
			}
			newHostOracle(net, f.strategy).check(t, "initial build")
		})
	}
}

// Along a fail → reconverge → restore timeline the tables match the
// oracle at every step: unchanged while the control plane has not yet
// reacted, recomputed after each reconvergence, stale where a switch is
// cut off (ToR 0 loses both uplinks), and whole again after the repair.
func TestTablesMatchPerHostOracleAcrossFailures(t *testing.T) {
	for _, strategy := range []route.Strategy{route.SinglePath{}, route.ECMP{}, route.WeightedECMP{}} {
		t.Run(strategy.Name(), func(t *testing.T) {
			cfg := FatTreeConfig{ServersPerTor: 3, Opts: equivOpts(strategy)}.WithDefaults()
			net := FatTree(cfg)
			o := newHostOracle(net, strategy)
			agg := cfg.Pods * cfg.TorsPerPod // first agg, in ToR 0's pod
			core := agg + cfg.Pods*cfg.AggsPerPod
			const reconverge = 5 * sim.Microsecond
			us := func(n int) sim.Time { return sim.Time(sim.Duration(n) * sim.Microsecond) }
			net.Router.Schedule([]route.LinkEvent{
				{At: us(10), A: 0, B: agg, Down: true},
				{At: us(20), A: agg + 1, B: core, Down: true},
				{At: us(30), A: 0, B: agg + 1, Down: true},
				{At: us(40), A: 0, B: agg},
				{At: us(50), A: 0, B: agg + 1},
				{At: us(60), A: agg + 1, B: core},
			}, reconverge)
			for _, at := range []int{10, 20, 30, 40, 50, 60} {
				net.Eng.RunUntil(us(at))
				o.check(t, fmt.Sprintf("%d µs, link changed, not reconverged", at))
				net.Eng.RunUntil(us(at).Add(reconverge))
				o.rebuild()
				o.check(t, fmt.Sprintf("%d µs, reconverged", at))
			}
			if got := net.Router.Rebuilds(); got != 7 {
				t.Fatalf("%d rebuilds, want the build and 6 reconvergences", got)
			}
		})
	}
}

// On a rotor fabric the router's tables and the rotor's moves together
// match the oracle after every reroute of a week: a ToR's routes to a
// rack ride the circuit port exactly while ActiveOrUpcoming says so, and
// the packet uplink otherwise, while every other entry is the oracle's.
func TestRotorTablesMatchPerHostOracle(t *testing.T) {
	cfg := RotorConfig{
		Tors: 4, ServersPerTor: 2,
		Day: 100 * sim.Microsecond, Night: 10 * sim.Microsecond,
		Prebuffer: 30 * sim.Microsecond, // not a whole slot: the rotor ticks between days
		Opts:      equivOpts(nil),
	}
	net := RotorFabric(cfg)
	rot := net.Rotor
	o := newHostOracle(net, nil)
	flips := 0
	for at := sim.Time(0); at <= sim.Time(rot.Sched.Week()); at = at.Add(sim.Microsecond) {
		net.Eng.RunUntil(at)
		for src := range cfg.Tors {
			for h := range net.Hosts {
				dst := h / cfg.ServersPerTor
				if dst == src {
					continue
				}
				via := rot.viaPacket
				if rot.Sched.ActiveOrUpcoming(src, dst, at, rot.Cfg.Prebuffer) {
					via = rot.viaCircuit
				}
				if !slices.Equal(o.tables[src][h], via) {
					o.tables[src][h] = via
					flips++
				}
			}
		}
		o.check(t, fmt.Sprintf("%v into the week", at))
	}
	if flips == 0 {
		t.Fatal("no route moved over a week")
	}
}
