// Package route is the routing control plane of the simulator. It
// computes forwarding tables over the switch graph a topology builder
// wires up and installs them into the switches, separating *how paths
// are chosen* (a pluggable Strategy: single-path, per-flow ECMP,
// capacity-weighted ECMP) from *how packets are forwarded* (the
// switches' table-driven data plane, which stays allocation-free).
//
// The package also models link failures: a Router can down and restore
// switch-to-switch links at scheduled simulation times. A failure cuts
// the wire immediately — packets serialized onto a downed link are lost
// at delivery time — while the routing tables reconverge only after a
// configurable control-plane delay, so schemes see the realistic
// black-holing window between a cut and the reroute.
//
// Tables are computed and kept per edge switch, not per host: every host
// behind one edge switch is reached over the same next hops from
// anywhere else, so a rebuild runs one BFS per edge switch and installs
// one candidate list on each other switch for all of that edge's hosts.
// The Router numbers the fabric once (Addressing): each host's edge
// ordinal and its slot behind that edge. A switch's table has one entry
// per edge plus one per host of its own, as two-level fat-tree tables do
// (Al-Fares et al., SIGCOMM 2008), and its lookup reads the host's
// address, then one entry.
//
// Determinism: path choice hashes the flow key (FlowHash) with no RNG,
// rebuilds walk switches and ports in index order, and failure events
// run on the simulation engine. Identical seeds therefore produce
// byte-identical results regardless of strategy or failure schedule.
package route

import (
	"fmt"

	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// PortRef describes one egress port of a switch in the routing graph.
// Exactly one of ToHost/switch linkage applies: when ToHost is set the
// port faces host Host (node HostID); otherwise it faces switch Peer.
type PortRef struct {
	Link   *link.Port
	ToHost bool
	down   bool // the Router's copy of Link's cut state, read by the BFS
	Host   int  // peer host index (ToHost)
	HostID packet.NodeID
	Peer   int // peer switch index (!ToHost)
}

// Installer is a switch's forwarding table as the Router fills it.
// Attach comes once, before any Install: it hands over the fabric's
// Addressing and the switch's own edge ordinal (-1 for a switch with no
// hosts), which fix the table's indexes (Addressing.Index) and its
// length (Addressing.TableLen). Install sets entry i to a candidate port
// list; ports belongs to the router and is valid only during the call,
// so the installer copies what it keeps. *swtch.Switch implements it.
type Installer interface {
	Attach(a *Addressing, own int)
	Install(i int, ports []int)
}

// Addr is a host's place in a fabric, packed in one word: 1 + the
// ordinal of its edge switch in the high half, its slot among that
// edge's hosts in the low half. The zero Addr names no host.
type Addr uint32

// maxPacked is both the most edges and the most hosts on one edge an
// Addr holds.
const maxPacked = 1<<16 - 1

// Edge returns the ordinal of the host's edge switch, -1 for no host.
func (a Addr) Edge() int { return int(a>>16) - 1 }

// Slot returns the host's place among its edge's hosts.
func (a Addr) Slot() int { return int(a & 0xFFFF) }

// Addressing is a fabric's host numbering: edges are the switches with
// hosts attached, in switch order, and each host is its edge's ordinal
// and its slot behind that edge, in port order. NewRouter writes it once;
// after that it is read only, by every switch of every shard.
type Addressing struct {
	addr  []Addr // by host node ID
	edges []edge // by edge ordinal
}

// Of returns the address of node dst, the zero Addr if dst is no host.
func (a *Addressing) Of(dst packet.NodeID) Addr {
	if d := uint(uint32(dst)); d < uint(len(a.addr)) { // a negative ID wraps past the end
		return a.addr[d]
	}
	return 0
}

// Index returns dst's entry in the table of the switch whose edge
// ordinal is own: dst's edge ordinal when dst sits behind another edge,
// the number of edges + its slot when it is one of own's hosts, and -1
// when dst is no host.
func (a *Addressing) Index(dst packet.NodeID, own int) int {
	v := a.Of(dst)
	if e := v.Edge(); e != own || v == 0 { // the zero Addr's edge is -1
		return e
	}
	return len(a.edges) + v.Slot()
}

// TableLen returns the length of the table of the switch whose edge
// ordinal is own: one entry per edge, plus one per host of its own.
func (a *Addressing) TableLen(own int) int {
	if own < 0 {
		return len(a.edges)
	}
	return len(a.edges) + a.edges[own].hi - a.edges[own].lo
}

// Candidate is one equal-cost next hop offered to a Strategy.
type Candidate struct {
	Port int
	Rate units.BitRate
}

// Strategy turns the equal-cost candidate set for one (switch,
// destination edge switch) pair into the installed port list the switch
// hashes over, for every host behind that edge. Expand runs on the
// control plane (topology build, reconvergence) and appends its ports to
// out, returning the extended slice — the Router passes one scratch
// slice it reuses, and the installer keeps its own copy of each distinct
// list. The data plane only indexes the installed slice.
type Strategy interface {
	Expand(cand []Candidate, out []int) []int
}

// SinglePath always installs the lowest-indexed candidate — the
// deterministic shortest-path baseline that concentrates every flow of a
// destination onto one uplink.
type SinglePath struct{}

// Expand implements Strategy.
func (SinglePath) Expand(cand []Candidate, out []int) []int {
	if len(cand) == 0 {
		return out
	}
	best := cand[0].Port
	for _, c := range cand[1:] {
		if c.Port < best {
			best = c.Port
		}
	}
	return append(out, best)
}

// ECMP installs every equal-cost candidate; the switch spreads flows
// over them with FlowHash. This is the classic per-flow five-tuple ECMP
// of leaf-spine fabrics, hash imbalance included.
type ECMP struct{}

// Expand implements Strategy.
func (ECMP) Expand(cand []Candidate, out []int) []int {
	for _, c := range cand {
		out = append(out, c.Port)
	}
	return out
}

// WeightedECMP replicates each candidate proportionally to its link
// capacity (WCMP), so a spine with twice the bandwidth receives twice
// the hash space. Replication is normalized by the GCD of the
// capacities; when that would exceed MaxReplicas for some candidate,
// all weights are rescaled proportionally (every candidate keeps at
// least one entry) so extreme capacity ratios bound the table size
// without silently distorting the split.
type WeightedECMP struct {
	// MaxReplicas bounds the per-candidate replication factor; 0 means 16.
	MaxReplicas int
}

// Expand implements Strategy.
func (w WeightedECMP) Expand(cand []Candidate, out []int) []int {
	if len(cand) == 0 {
		return out
	}
	cap := int64(w.MaxReplicas)
	if cap <= 0 {
		cap = 16
	}
	// Weights in whole Gbps (fabric rates are integral Gbps); a rate
	// below 1 Gbps still gets weight 1 so no candidate vanishes.
	g := int64(0)
	maxW := int64(0)
	var wbuf [16]int64
	weights := wbuf[:0]
	if len(cand) > len(wbuf) {
		weights = make([]int64, 0, len(cand))
	}
	weights = weights[:len(cand)]
	for i, c := range cand {
		weights[i] = int64(c.Rate / units.Gbps)
		if weights[i] < 1 {
			weights[i] = 1
		}
		g = gcd(g, weights[i])
		if weights[i] > maxW {
			maxW = weights[i]
		}
	}
	// When the GCD-normalized replication would exceed the cap, rescale
	// every weight proportionally (rounding, floor 1) instead of
	// clamping candidates independently — a 100G:3G pair must stay
	// ~33:1, not collapse to cap:3.
	scaleNum, scaleDen := int64(1), g
	if maxW/g > cap {
		scaleNum, scaleDen = cap, maxW
	}
	for i, c := range cand {
		n := (weights[i]*scaleNum + scaleDen/2) / scaleDen
		if n < 1 {
			n = 1
		}
		for k := int64(0); k < n; k++ {
			out = append(out, c.Port)
		}
	}
	return out
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// StrategyByName resolves a strategy name ("single", "ecmp", "wecmp").
// The empty name resolves to ECMP, the fabric default.
func StrategyByName(name string) (Strategy, error) {
	switch name {
	case "", "ecmp":
		return ECMP{}, nil
	case "single":
		return SinglePath{}, nil
	case "wecmp":
		return WeightedECMP{}, nil
	default:
		return nil, fmt.Errorf("route: unknown strategy %q (known: ecmp, single, wecmp)", name)
	}
}

// FlowHash is the deterministic per-flow ECMP key: a splitmix64-style
// mix over the flow's addressing tuple (source, destination, flow ID —
// the simulator's stand-in for the classic five-tuple). All switches
// share it, so a flow follows one path end to end, and reruns at the
// same seed follow the same paths.
func FlowHash(src, dst packet.NodeID, flow packet.FlowID) uint64 {
	x := uint64(flow)
	x ^= uint64(uint32(src))<<32 | uint64(uint32(dst))
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Router owns the routing control plane of one network: the graph with
// each link's cut state, the strategy, and the installers (switches)
// that receive computed tables.
type Router struct {
	eng        *sim.Engine
	graph      [][]PortRef // per switch, per port
	installers []Installer // same order as graph
	strategy   Strategy

	addr     Addressing
	access   []int // every host's access port, grouped by edge in slot order
	rebuilds int

	// Scratch reused across rebuilds.
	dist     []int
	frontier []int
	next     []int
	cand     []Candidate
	ports    []int
}

// edge is one switch with hosts attached — the unit tables are computed
// for. Its hosts sit behind ports Router.access[lo:hi], slot k at lo+k.
type edge struct{ sw, lo, hi int }

// NewRouter builds a router over the graph, numbers the fabric's hosts
// (Addressing), attaches every installer and installs the initial
// tables. graph[i] lists switch i's egress ports in port order;
// installers[i] is the switch itself. Every host hangs off exactly one
// switch port — the per-edge grouping relies on it.
func NewRouter(eng *sim.Engine, graph [][]PortRef, installers []Installer, strategy Strategy) *Router {
	if strategy == nil {
		strategy = ECMP{}
	}
	r := &Router{
		eng:        eng,
		graph:      graph,
		installers: installers,
		strategy:   strategy,
		dist:       make([]int, len(graph)),
	}
	hosts, maxID := 0, packet.NodeID(-1)
	for _, ports := range graph {
		for _, ref := range ports {
			if ref.ToHost {
				hosts++
				maxID = max(maxID, ref.HostID)
			}
		}
	}
	r.addr.addr = make([]Addr, maxID+1)
	r.access = make([]int, 0, hosts)
	own := make([]int, len(graph))
	for si, ports := range graph {
		own[si] = -1
		e, lo := len(r.addr.edges), len(r.access)
		for pi, ref := range ports {
			if !ref.ToHost {
				continue
			}
			if v := r.addr.addr[ref.HostID]; v != 0 {
				other := si
				if v.Edge() < e {
					other = r.addr.edges[v.Edge()].sw
				}
				panic(fmt.Sprintf("route: host %d is wired to switch %d and to switch %d; a host has one access port", ref.Host, other, si))
			}
			slot := len(r.access) - lo
			if e >= maxPacked || slot >= maxPacked {
				panic(fmt.Sprintf("route: switch %d is edge %d with host slot %d; addresses hold %d edges of %[4]d hosts", si, e, slot, maxPacked))
			}
			r.addr.addr[ref.HostID] = Addr(e+1)<<16 | Addr(slot)
			r.access = append(r.access, pi)
		}
		if hi := len(r.access); hi > lo {
			own[si] = e
			r.addr.edges = append(r.addr.edges, edge{sw: si, lo: lo, hi: hi})
		}
	}
	for si, in := range installers {
		in.Attach(&r.addr, own[si])
	}
	r.Rebuild()
	return r
}

// Addressing returns the fabric's host numbering.
func (r *Router) Addressing() *Addressing { return &r.addr }

// Rebuilds counts control-plane table recomputations (1 after build).
func (r *Router) Rebuilds() int { return r.rebuilds }

// FailLink cuts the link between switches a and b in both directions:
// packets already serialized onto it are lost at delivery time and new
// transmissions are discarded. Routing tables are NOT recomputed —
// callers model control-plane reconvergence by calling Rebuild later
// (or by using Schedule, which does both with a delay).
func (r *Router) FailLink(a, b int) { r.setLinkDown(a, b, true) }

// RestoreLink re-activates a failed link. As with FailLink, tables are
// recomputed only by an explicit Rebuild.
func (r *Router) RestoreLink(a, b int) { r.setLinkDown(a, b, false) }

// setLinkDown sets the state of every port between a and b, in both
// directions.
func (r *Router) setLinkDown(a, b int, down bool) {
	cut := 0
	for _, pair := range [2][2]int{{a, b}, {b, a}} {
		refs := r.graph[pair[0]]
		for pi := range refs {
			if ref := &refs[pi]; !ref.ToHost && ref.Peer == pair[1] {
				ref.down = down
				ref.Link.SetDown(down)
				cut++
			}
		}
	}
	if cut == 0 {
		// A failure script naming a non-existent link is a wiring bug in
		// the caller (local vs global switch indexes, usually); failing
		// loudly beats measuring an intact network as if it were cut.
		panic(fmt.Sprintf("route: switches %d and %d share no link", a, b))
	}
}

// LinkEvent is one scheduled link state change between two switches.
type LinkEvent struct {
	At   sim.Time
	A, B int
	Down bool
}

// Schedule arms the failure script on the engine: at each event's time
// the data plane changes immediately (FailLink/RestoreLink), and the
// routing tables reconverge one control-plane delay later — the window
// during which traffic hashed onto the dead path is black-holed.
func (r *Router) Schedule(events []LinkEvent, reconverge sim.Duration) {
	for _, ev := range events {
		ev := ev
		r.eng.At(ev.At, func() {
			if ev.Down {
				r.FailLink(ev.A, ev.B)
			} else {
				r.RestoreLink(ev.A, ev.B)
			}
			r.eng.After(reconverge, r.Rebuild)
		})
	}
}

// Rebuild recomputes every routing table from the current link state: a
// BFS per edge switch over the switch graph (skipping failed links), the
// equal-cost candidates at every other switch expanded by the strategy
// and installed once, in that switch's entry for the edge; the edge
// switch gets each host's own port in the host's slot entry. Switches
// left with no path to an edge keep their stale entries — pointing at a
// dead port that drops — mirroring a real partition rather than
// pretending the packet was never sent.
func (r *Router) Rebuild() {
	r.rebuilds++
	const inf = int(1e9)
	for ei, e := range r.addr.edges {
		access := r.access[e.lo:e.hi]
		for i := range r.dist {
			r.dist[i] = inf
		}
		r.dist[e.sw] = 1
		frontier, next := append(r.frontier[:0], e.sw), r.next[:0]
		for len(frontier) > 0 {
			next = next[:0]
			for _, si := range frontier {
				for _, ref := range r.graph[si] {
					if ref.ToHost || ref.down {
						continue
					}
					if r.dist[ref.Peer] == inf {
						r.dist[ref.Peer] = r.dist[si] + 1
						next = append(next, ref.Peer)
					}
				}
			}
			frontier, next = next, frontier
		}
		r.frontier, r.next = frontier[:0], next[:0]

		for k := range access {
			r.installers[e.sw].Install(len(r.addr.edges)+k, access[k:k+1])
		}
		for si, refs := range r.graph {
			if si == e.sw || r.dist[si] == inf {
				continue // the edge itself; partitioned: keep the stale entries
			}
			r.cand = r.cand[:0]
			for pi, ref := range refs {
				if !ref.ToHost && !ref.down && r.dist[ref.Peer] == r.dist[si]-1 {
					r.cand = append(r.cand, Candidate{Port: pi, Rate: ref.Link.Rate})
				}
			}
			r.ports = r.strategy.Expand(r.cand, r.ports[:0])
			if len(r.ports) > 0 {
				r.installers[si].Install(ei, r.ports)
			}
		}
	}
}
