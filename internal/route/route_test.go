package route

import (
	"fmt"
	"testing"

	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

func TestStrategyByName(t *testing.T) {
	for name, want := range map[string]Strategy{
		"": ECMP{}, "ecmp": ECMP{}, "single": SinglePath{}, "wecmp": WeightedECMP{},
	} {
		s, err := StrategyByName(name)
		if err != nil {
			t.Fatalf("StrategyByName(%q): %v", name, err)
		}
		if s != want {
			t.Fatalf("StrategyByName(%q) = %#v, want %#v", name, s, want)
		}
	}
	if _, err := StrategyByName("bogus"); err == nil {
		t.Fatal("unknown strategy did not error")
	}
}

func TestSinglePathPicksLowestPort(t *testing.T) {
	got := SinglePath{}.Expand([]Candidate{{Port: 3}, {Port: 1}, {Port: 2}}, nil)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("SinglePath expanded to %v, want [1]", got)
	}
	if got := (SinglePath{}).Expand(nil, nil); got != nil {
		t.Fatalf("SinglePath on empty candidates = %v", got)
	}
}

func TestECMPKeepsAllCandidates(t *testing.T) {
	got := ECMP{}.Expand([]Candidate{{Port: 0}, {Port: 2}, {Port: 5}}, nil)
	if len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 5 {
		t.Fatalf("ECMP expanded to %v", got)
	}
}

func TestWeightedECMPReplicatesByCapacity(t *testing.T) {
	got := WeightedECMP{}.Expand([]Candidate{
		{Port: 0, Rate: 100 * units.Gbps},
		{Port: 1, Rate: 50 * units.Gbps},
	}, nil)
	// GCD(100, 50) = 50 → port 0 twice, port 1 once.
	if len(got) != 3 || got[0] != 0 || got[1] != 0 || got[2] != 1 {
		t.Fatalf("WCMP expanded to %v, want [0 0 1]", got)
	}
	// Equal capacities degrade to plain ECMP.
	eq := WeightedECMP{}.Expand([]Candidate{
		{Port: 0, Rate: 100 * units.Gbps},
		{Port: 1, Rate: 100 * units.Gbps},
	}, nil)
	if len(eq) != 2 {
		t.Fatalf("equal-rate WCMP expanded to %v", eq)
	}
	// Extreme ratios are capped so tables stay bounded.
	capped := WeightedECMP{MaxReplicas: 4}.Expand([]Candidate{
		{Port: 0, Rate: 400 * units.Gbps},
		{Port: 1, Rate: 1 * units.Gbps},
	}, nil)
	n0 := 0
	for _, p := range capped {
		if p == 0 {
			n0++
		}
	}
	if n0 != 4 {
		t.Fatalf("replication cap ignored: %v", capped)
	}
}

func TestFlowHashDeterministicAndSpreads(t *testing.T) {
	if FlowHash(1, 2, 3) != FlowHash(1, 2, 3) {
		t.Fatal("hash is not a function of its inputs")
	}
	if FlowHash(1, 2, 3) == FlowHash(2, 1, 3) {
		t.Fatal("hash ignores direction")
	}
	buckets := [4]int{}
	for f := packet.FlowID(0); f < 256; f++ {
		buckets[FlowHash(7, 9, f)%4]++
	}
	for i, n := range buckets {
		if n == 0 {
			t.Fatalf("bucket %d empty across 256 flows: %v", i, buckets)
		}
	}
}

// tableStub records installed routes like a switch would: by table
// index, resolved per destination through the fabric's Addressing.
type tableStub struct {
	addr    *Addressing
	own     int
	entries map[int][]int
}

func newTableStub() *tableStub { return &tableStub{entries: map[int][]int{}} }

func (ts *tableStub) Attach(a *Addressing, own int) { ts.addr, ts.own = a, own }

func (ts *tableStub) Install(i int, ports []int) {
	if i < 0 || i >= ts.addr.TableLen(ts.own) {
		panic(fmt.Sprintf("install at %d outside a table of %d", i, ts.addr.TableLen(ts.own)))
	}
	ts.entries[i] = append([]int(nil), ports...) // ports is the router's scratch
}

// route returns the installed candidate list for dst.
func (ts *tableStub) route(dst packet.NodeID) []int { return ts.entries[ts.addr.Index(dst, ts.own)] }

// diamond builds the minimal multipath graph: host 0 on switch 0, host 1
// on switch 3, two disjoint two-hop paths 0-1-3 and 0-2-3.
func diamond(eng *sim.Engine) ([][]PortRef, []*tableStub) {
	port := func(rate units.BitRate) *link.Port { return link.NewPort(eng, rate, 0, nil) }
	g := [][]PortRef{
		{ // switch 0: host 0, then uplinks to 1 and 2
			{Link: port(25 * units.Gbps), ToHost: true, Host: 0, HostID: 100},
			{Link: port(100 * units.Gbps), Peer: 1},
			{Link: port(100 * units.Gbps), Peer: 2},
		},
		{ // switch 1
			{Link: port(100 * units.Gbps), Peer: 0},
			{Link: port(100 * units.Gbps), Peer: 3},
		},
		{ // switch 2
			{Link: port(100 * units.Gbps), Peer: 0},
			{Link: port(100 * units.Gbps), Peer: 3},
		},
		{ // switch 3: host 1, then uplinks
			{Link: port(25 * units.Gbps), ToHost: true, Host: 1, HostID: 101},
			{Link: port(100 * units.Gbps), Peer: 1},
			{Link: port(100 * units.Gbps), Peer: 2},
		},
	}
	stubs := []*tableStub{newTableStub(), newTableStub(), newTableStub(), newTableStub()}
	return g, stubs
}

func installers(stubs []*tableStub) []Installer {
	out := make([]Installer, len(stubs))
	for i, s := range stubs {
		out[i] = s
	}
	return out
}

func TestRouterInstallsECMPAndReconverges(t *testing.T) {
	eng := sim.New()
	g, stubs := diamond(eng)
	r := NewRouter(eng, g, installers(stubs), ECMP{})

	if got := stubs[0].route(101); len(got) != 2 {
		t.Fatalf("switch 0 ECMP candidates for host 1 = %v, want 2", got)
	}
	if got := stubs[0].route(100); len(got) != 1 || got[0] != 0 {
		t.Fatalf("switch 0 direct route = %v, want [0]", got)
	}

	// Cut 0–1: the wire goes down instantly, tables only after Rebuild.
	r.FailLink(0, 1)
	if !g[0][1].Link.IsDown() || !g[1][0].Link.IsDown() {
		t.Fatal("failed link's ports are not down in both directions")
	}
	if got := stubs[0].route(101); len(got) != 2 {
		t.Fatalf("tables changed before reconvergence: %v", got)
	}
	r.Rebuild()
	if got := stubs[0].route(101); len(got) != 1 || got[0] != 2 {
		t.Fatalf("post-failure route = %v, want [2] (via switch 2)", got)
	}
	// Switch 1 is still reachable from switch 3's side and keeps a path.
	if got := stubs[1].route(101); len(got) != 1 || got[0] != 1 {
		t.Fatalf("switch 1 route after failure = %v", got)
	}

	r.RestoreLink(0, 1)
	r.Rebuild()
	if got := stubs[0].route(101); len(got) != 2 {
		t.Fatalf("restored route = %v, want 2 candidates", got)
	}
	if g[0][1].Link.IsDown() {
		t.Fatal("restored link still down")
	}
	if r.Rebuilds() != 3 { // initial + failure + restore
		t.Fatalf("rebuilds = %d", r.Rebuilds())
	}
}

func TestRouterPartitionKeepsStaleRoute(t *testing.T) {
	eng := sim.New()
	g, stubs := diamond(eng)
	r := NewRouter(eng, g, installers(stubs), ECMP{})
	// Cut both paths out of switch 0: it is partitioned from host 1.
	r.FailLink(0, 1)
	r.FailLink(0, 2)
	r.Rebuild()
	// The stale entry remains — packets black-hole on the dead port
	// instead of panicking on a missing route.
	if got := stubs[0].route(101); len(got) == 0 {
		t.Fatal("partition erased the stale route")
	}
	if r.DownLinks() != 2 {
		t.Fatalf("down links = %d", r.DownLinks())
	}
}

func TestRouterScheduleRunsOnEngine(t *testing.T) {
	eng := sim.New()
	g, stubs := diamond(eng)
	r := NewRouter(eng, g, installers(stubs), ECMP{})
	fail, restore := sim.Time(100*sim.Microsecond), sim.Time(300*sim.Microsecond)
	r.Schedule([]LinkEvent{
		{At: fail, A: 0, B: 1, Down: true},
		{At: restore, A: 0, B: 1, Down: false},
	}, 50*sim.Microsecond)

	eng.RunUntil(sim.Time(120 * sim.Microsecond))
	if !g[0][1].Link.IsDown() {
		t.Fatal("link not cut at its scheduled time")
	}
	if got := stubs[0].route(101); len(got) != 2 {
		t.Fatal("tables reconverged before the control-plane delay")
	}
	eng.RunUntil(sim.Time(200 * sim.Microsecond))
	if got := stubs[0].route(101); len(got) != 1 {
		t.Fatalf("tables did not reconverge after the delay: %v", got)
	}
	eng.RunUntil(sim.Time(400 * sim.Microsecond))
	if g[0][1].Link.IsDown() {
		t.Fatal("link not restored")
	}
	if got := stubs[0].route(101); len(got) != 2 {
		t.Fatalf("tables did not reconverge after restore: %v", got)
	}
}

func TestWeightedStrategyInstallsReplicatedTables(t *testing.T) {
	eng := sim.New()
	g, stubs := diamond(eng)
	// Make the 0→2 path twice as fat as 0→1.
	g[0][1].Link.Rate = 50 * units.Gbps
	g[0][2].Link.Rate = 100 * units.Gbps
	NewRouter(eng, g, installers(stubs), WeightedECMP{})
	got := stubs[0].route(101)
	n1, n2 := 0, 0
	for _, p := range got {
		switch p {
		case 1:
			n1++
		case 2:
			n2++
		}
	}
	if n1 != 1 || n2 != 2 {
		t.Fatalf("weighted table = %v, want port 2 twice and port 1 once", got)
	}
}

func TestFailLinkOnNonAdjacentPairPanics(t *testing.T) {
	eng := sim.New()
	g, stubs := diamond(eng)
	r := NewRouter(eng, g, installers(stubs), ECMP{})
	defer func() {
		if recover() == nil {
			t.Fatal("failing a non-existent link did not panic")
		}
	}()
	r.FailLink(1, 2) // switches 1 and 2 share no link in the diamond
}

// Tables are computed per edge switch, which only works if every host
// sits behind exactly one: a second attachment is a wiring bug named at
// build time, not a host that silently loses half its routes.
func TestMultiHomedHostPanics(t *testing.T) {
	eng := sim.New()
	g, stubs := diamond(eng)
	g[2] = append(g[2], PortRef{Link: link.NewPort(eng, 25*units.Gbps, 0, nil), ToHost: true, Host: 1, HostID: 101})
	defer func() {
		want := "route: host 1 is wired to switch 2 and to switch 3; a host has one access port"
		if got := recover(); got != want {
			t.Fatalf("NewRouter on a multi-homed host panicked with %v, want %q", got, want)
		}
	}()
	NewRouter(eng, g, installers(stubs), ECMP{})
}

// nopInstaller takes tables and keeps nothing.
type nopInstaller struct{}

func (nopInstaller) Attach(*Addressing, int) {}
func (nopInstaller) Install(int, []int)      {}

// An address packs the edge ordinal and the slot in 16 bits each: a
// fabric wider than that is refused at build, by name, rather than
// aliasing two hosts onto one table entry.
func TestAddressWidthPanics(t *testing.T) {
	eng := sim.New()
	hostPorts := func(first, n int) []PortRef {
		refs := make([]PortRef, n)
		for i := range refs {
			refs[i] = PortRef{ToHost: true, Host: first + i, HostID: packet.NodeID(first + i)}
		}
		return refs
	}
	build := func(g [][]PortRef) (msg any) {
		defer func() { msg = recover() }()
		ins := make([]Installer, len(g))
		for i := range ins {
			ins[i] = nopInstaller{}
		}
		NewRouter(eng, g, ins, ECMP{})
		return nil
	}
	if msg := build([][]PortRef{hostPorts(0, maxPacked)}); msg != nil {
		t.Fatalf("%d hosts on one edge panicked: %v", maxPacked, msg)
	}
	want := "route: switch 0 is edge 0 with host slot 65535; addresses hold 65535 edges of 65535 hosts"
	if msg := build([][]PortRef{hostPorts(0, maxPacked+1)}); msg != want {
		t.Fatalf("%d hosts on one edge panicked with %v, want %q", maxPacked+1, msg, want)
	}
	wide := make([][]PortRef, maxPacked+1)
	for si := range wide {
		wide[si] = hostPorts(si, 1)
	}
	want = "route: switch 65535 is edge 65535 with host slot 0; addresses hold 65535 edges of 65535 hosts"
	if msg := build(wide); msg != want {
		t.Fatalf("%d edges panicked with %v, want %q", len(wide), msg, want)
	}
}
