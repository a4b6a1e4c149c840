package swtch

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

type sink struct{ pkts []*packet.Packet }

func (s *sink) Receive(p *packet.Packet) { s.pkts = append(s.pkts, p) }

func data(flow packet.FlowID, dst packet.NodeID, n int32) *packet.Packet {
	return &packet.Packet{Kind: packet.Data, Flow: flow, Dst: dst, PayloadLen: n, ECT: true}
}

func TestForwardingAndINT(t *testing.T) {
	eng := sim.New()
	sw := New(eng, 1, Config{INT: true})
	dst := &sink{}
	sw.AddPort(100*units.Gbps, sim.Microsecond, dst, nil)
	sw.SetRoute(7, []int{0})
	sw.Receive(data(1, 7, 1000))
	eng.Run()
	if len(dst.pkts) != 1 {
		t.Fatalf("forwarded %d packets", len(dst.pkts))
	}
	p := dst.pkts[0]
	if len(p.Hops()) != 1 {
		t.Fatalf("INT hops = %d, want 1", len(p.Hops()))
	}
	h := p.Hops()[0]
	if h.Rate != 100*units.Gbps || h.QLen != 0 {
		t.Fatalf("hop = %+v", h)
	}
}

func TestINTDisabled(t *testing.T) {
	eng := sim.New()
	sw := New(eng, 1, Config{})
	dst := &sink{}
	sw.AddPort(100*units.Gbps, 0, dst, nil)
	sw.SetRoute(7, []int{0})
	sw.Receive(data(1, 7, 1000))
	eng.Run()
	if len(dst.pkts[0].Hops()) != 0 {
		t.Fatal("INT stamped while disabled")
	}
}

func TestECNMarking(t *testing.T) {
	eng := sim.New()
	sw := New(eng, 1, Config{ECN: ECNConfig{KMin: 2000, KMax: 4000, PMax: 1.0}})
	dst := &sink{}
	sw.AddPort(1*units.Gbps, 0, dst, nil) // slow: queue builds
	sw.SetRoute(7, []int{0})
	for i := 0; i < 10; i++ {
		sw.Receive(data(1, 7, 1000))
	}
	eng.Run()
	var marked int
	for _, p := range dst.pkts {
		if p.CE {
			marked++
		}
	}
	// First dequeues see >4000B queued (always mark); the last see <2000B
	// (never mark).
	if marked == 0 || marked == len(dst.pkts) {
		t.Fatalf("marked %d/%d, want partial marking", marked, len(dst.pkts))
	}
	if dst.pkts[len(dst.pkts)-1].CE {
		t.Fatal("last packet (empty queue) marked")
	}
	if sw.Marked() != uint64(marked) {
		t.Fatalf("Marked() = %d, counted %d", sw.Marked(), marked)
	}
}

func TestNonECTNeverMarked(t *testing.T) {
	eng := sim.New()
	sw := New(eng, 1, Config{ECN: ECNConfig{KMin: 0, KMax: 1, PMax: 1}})
	dst := &sink{}
	sw.AddPort(1*units.Gbps, 0, dst, nil)
	sw.SetRoute(7, []int{0})
	for i := 0; i < 5; i++ {
		p := data(1, 7, 1000)
		p.ECT = false
		sw.Receive(p)
	}
	eng.Run()
	for _, p := range dst.pkts {
		if p.CE {
			t.Fatal("non-ECT packet marked")
		}
	}
}

func TestSharedBufferDropsAndReleases(t *testing.T) {
	eng := sim.New()
	sw := New(eng, 1, Config{BufferBytes: 5000, Alpha: 100})
	dst := &sink{}
	sw.AddPort(1*units.Gbps, 0, dst, nil)
	sw.SetRoute(7, []int{0})
	for i := 0; i < 10; i++ { // 10×1048B > 5000B
		sw.Receive(data(1, 7, 1000))
	}
	if sw.Dropped() == 0 {
		t.Fatal("no admission drops on a 5KB buffer")
	}
	eng.Run()
	if sw.Shared().Used() != 0 {
		t.Fatalf("buffer leak: %dB still used", sw.Shared().Used())
	}
	if len(dst.pkts)+int(sw.Dropped()) != 10 {
		t.Fatalf("delivered %d + dropped %d != 10", len(dst.pkts), sw.Dropped())
	}
}

// The switch counts no drops of its own: Dropped is the sum of its
// ports' admission drops, and each dropped packet went back to the pool.
func TestDroppedIsPortsDrops(t *testing.T) {
	eng := sim.New()
	pool := packet.NewPool()
	sw := New(eng, 1, Config{BufferBytes: 8000, Alpha: 100, Pool: pool})
	a, b := &sink{}, &sink{}
	sw.AddPort(1*units.Gbps, 0, a, nil)
	sw.AddPort(1*units.Gbps, 0, b, nil)
	sw.SetRoute(7, []int{0})
	sw.SetRoute(8, []int{1})
	for i := 0; i < 20; i++ { // 20×1048B into 8000B, over both ports
		p := pool.Get()
		p.Kind, p.Flow, p.Dst, p.PayloadLen = packet.Data, 1, packet.NodeID(7+i%2), 1000
		sw.Receive(p)
	}
	pa, pb := sw.Ports()[0].Drops(), sw.Ports()[1].Drops()
	if pa == 0 || pb == 0 {
		t.Fatalf("port drops %d and %d, want both ports to overflow", pa, pb)
	}
	if sw.Dropped() != pa+pb {
		t.Fatalf("Dropped() = %d, ports dropped %d + %d", sw.Dropped(), pa, pb)
	}
	if _, _, puts := pool.Stats(); puts != sw.Dropped() {
		t.Fatalf("pool took back %d packets, %d were dropped", puts, sw.Dropped())
	}
	eng.Run()
	if got := uint64(len(a.pkts) + len(b.pkts)); got+sw.Dropped() != 20 {
		t.Fatalf("delivered %d + dropped %d != 20", got, sw.Dropped())
	}
}

func TestECMPIsPerFlowConsistent(t *testing.T) {
	eng := sim.New()
	sw := New(eng, 1, Config{})
	a, b := &sink{}, &sink{}
	sw.AddPort(100*units.Gbps, 0, a, nil)
	sw.AddPort(100*units.Gbps, 0, b, nil)
	sw.SetRoute(7, []int{0, 1})
	for i := 0; i < 20; i++ {
		sw.Receive(data(42, 7, 100))
	}
	for flow := packet.FlowID(0); flow < 50; flow++ {
		sw.Receive(data(flow, 7, 100))
	}
	eng.Run()
	// Flow 42's packets (20 from the first loop plus one from the sweep)
	// all went the same way.
	count42 := 0
	for _, p := range a.pkts {
		if p.Flow == 42 {
			count42++
		}
	}
	if count42 != 0 && count42 != 21 {
		t.Fatalf("flow 42 split across ports: %d of 21 on port A", count42)
	}
	// Across 50 flows, both ports see traffic.
	if len(a.pkts) == 0 || len(b.pkts) == 0 {
		t.Fatalf("ECMP skew: %d vs %d", len(a.pkts), len(b.pkts))
	}
}

// A destination the table cannot resolve — below it, beyond it, or
// inside it but never installed — is a routing bug reported by name, not
// an index-out-of-range from the table.
func TestNoRoutePanics(t *testing.T) {
	for _, dst := range []packet.NodeID{-1, -1 << 31, 5, 8, 1 << 30} {
		eng := sim.New()
		sw := New(eng, 1, Config{})
		sw.AddPort(100*units.Gbps, 0, &sink{}, nil)
		sw.SetRoute(7, []int{0}) // table covers 0..7; only 7 is installed
		func() {
			defer func() {
				want := fmt.Sprintf("swtch: switch 1 has no route to %d", dst)
				if got := recover(); got != want {
					t.Fatalf("Receive(dst %d) panicked with %v, want %q", dst, got, want)
				}
			}()
			sw.Receive(data(1, dst, 100))
		}()
		if r := sw.Route(dst); r != nil {
			t.Fatalf("Route(%d) = %v, want nil", dst, r)
		}
	}
}

// SetRoute on IDs far apart grows the table as needed; PresizeRoutes is
// an optimisation, never a precondition, and keeps what is installed.
func TestSetRouteGrowsTableForSparseIDs(t *testing.T) {
	eng := sim.New()
	sw := New(eng, 1, Config{})
	a, b := &sink{}, &sink{}
	sw.AddPort(100*units.Gbps, 0, a, nil)
	sw.AddPort(100*units.Gbps, 0, b, nil)
	sw.SetRoute(100, []int{1})
	sw.SetRoute(7, []int{0})
	sw.SetRoute(101, []int{0, 1})
	sw.PresizeRoutes(4096)
	for dst, want := range map[packet.NodeID][]int{7: {0}, 100: {1}, 101: {0, 1}, 8: nil, 99: nil, 102: nil, 4095: nil} {
		if got := sw.Route(dst); !slices.Equal(got, want) {
			t.Fatalf("Route(%d) = %v, want %v", dst, got, want)
		}
	}
	sw.Receive(data(1, 7, 100))
	sw.Receive(data(1, 100, 100))
	eng.Run()
	if len(a.pkts) != 1 || len(b.pkts) != 1 {
		t.Fatalf("forwarded %d to port 0 and %d to port 1, want 1 and 1", len(a.pkts), len(b.pkts))
	}
	// An empty list uninstalls.
	sw.SetRoute(7, nil)
	if got := sw.Route(7); got != nil {
		t.Fatalf("Route(7) after SetRoute(7, nil) = %v", got)
	}
}

// Destinations with the same candidate list share one stored group: the
// switch copies a list the first time it sees it and only then, so a
// reconvergence that flips between two states neither allocates nor
// grows the group list after the first flip.
func TestCandidateGroupsAreSharedAndStable(t *testing.T) {
	sw := New(sim.New(), 1, Config{})
	for i := 0; i < 4; i++ {
		sw.AddPort(100*units.Gbps, 0, &sink{}, nil)
	}
	sw.PresizeRoutes(64)
	rack := []packet.NodeID{8, 9, 10, 11}
	setRoutes := func(ports []int) { // a switch keyed by node ID: entry i is node i
		for _, dst := range rack {
			sw.Install(int(dst), ports)
		}
	}
	scratch := []int{2, 3}
	setRoutes(scratch)
	scratch[0] = 0 // the router reuses its scratch; the switch kept a copy
	for _, dst := range rack {
		if got := sw.Route(dst); !slices.Equal(got, []int{2, 3}) {
			t.Fatalf("Route(%d) = %v, want [2 3]", dst, got)
		}
		if &sw.Route(dst)[0] != &sw.Route(rack[0])[0] {
			t.Fatalf("destination %d does not share its rack's group", dst)
		}
	}
	sw.SetRoute(20, []int{3, 2}) // same ports, other order: its own group
	if len(sw.groups) != 2 {
		t.Fatalf("groups = %v, want [2 3] and [3 2]", sw.groups)
	}

	healthy, degraded := []int{2, 3}, []int{3}
	flip := func() {
		setRoutes(degraded)
		setRoutes(healthy)
	}
	flip()
	groups := len(sw.groups)
	if allocs := testing.AllocsPerRun(10, flip); allocs != 0 {
		t.Fatalf("re-installing known groups allocates %.1f per flip, want 0", allocs)
	}
	if len(sw.groups) != groups {
		t.Fatalf("group list grew from %d to %d over repeated flips", groups, len(sw.groups))
	}
}

func TestINTTxBytesMonotonic(t *testing.T) {
	eng := sim.New()
	sw := New(eng, 1, Config{INT: true})
	dst := &sink{}
	sw.AddPort(10*units.Gbps, 0, dst, nil)
	sw.SetRoute(7, []int{0})
	for i := 0; i < 8; i++ {
		sw.Receive(data(1, 7, 500))
	}
	eng.Run()
	var last uint64
	for i, p := range dst.pkts {
		tx := p.Hops()[0].TxBytes
		if i > 0 && tx <= last {
			t.Fatalf("txBytes not increasing: %d then %d", last, tx)
		}
		last = tx
	}
}

// recycler consumes delivered packets back into the pool like a host NIC.
type recycler struct {
	pool *packet.Pool
	got  int
}

func (r *recycler) Receive(p *packet.Packet) {
	r.got++
	r.pool.Put(p)
}

// The ECMP forwarding path — table lookup, flow hash, port Send — must
// not allocate per packet in steady state; multipath rides the same
// zero-allocation guarantee as the single-path fast path (PERF.md).
func TestECMPForwardingZeroAllocSteadyState(t *testing.T) {
	eng := sim.New()
	pool := packet.NewPool()
	sink := &recycler{pool: pool}
	sw := New(eng, 1, Config{INT: true, Pool: pool})
	sw.AddPort(100*units.Gbps, sim.Microsecond, sink, nil)
	sw.AddPort(100*units.Gbps, sim.Microsecond, sink, nil)
	sw.SetRoute(7, []int{0, 1})

	send := func(n int) {
		for i := 0; i < n; i++ {
			p := pool.Get()
			p.Kind = packet.Data
			p.Flow = packet.FlowID(i)
			p.Src = 3
			p.Dst = 7
			p.PayloadLen = 1000
			sw.Receive(p)
		}
		eng.Run()
	}
	// Warm the pool, both port serializers, and the engine's timing
	// wheel: each burst advances the clock, so repeating the burst walks
	// the wheel through its slot ring until every slot the steady state
	// lands in has capacity.
	for i := 0; i < 512; i++ {
		send(64)
	}

	allocs := testing.AllocsPerRun(100, func() { send(64) })
	if allocs > 0.5 {
		t.Fatalf("ECMP forwarding allocates %.2f allocs per 64-packet burst, want 0", allocs)
	}
	if sink.got == 0 {
		t.Fatal("no packets forwarded")
	}
}
