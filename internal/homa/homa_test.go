package homa_test

import (
	"testing"

	"repro/internal/homa"
	"repro/internal/packet"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/units"
)

func homaStar(n, overcommit int, bufPerGbps int64) *topo.Network {
	cfg := homa.Config{BaseRTT: 12 * sim.Microsecond, Overcommit: overcommit}
	return topo.Star(topo.StarConfig{
		Hosts:    n,
		HostRate: 25 * units.Gbps,
		Opts: topo.Options{
			Hosts: func(eng *sim.Engine, id packet.NodeID) topo.Node {
				h := new(homa.Host)
				h.Init(eng, id, cfg)
				return h
			},
			BufferPerGbps: bufPerGbps,
			Queues:        queue.NewPrios,
		},
	})
}

func hostAt(net *topo.Network, i int) *homa.Host { return net.Hosts[i].(*homa.Host) }

func TestSmallMessageUnscheduledOnly(t *testing.T) {
	net := homaStar(2, 1, 0)
	src, dst := hostAt(net, 0), hostAt(net, 1)
	var fct sim.Duration
	done := 0
	dst.OnMessageDone = func(c transport.Completion) { done++; fct = c.FCT }
	src.Send(net.NextFlowID(), dst.ID(), 5_000, 0) // 5KB < RTTBytes: pure unscheduled
	net.Eng.Run()
	if done != 1 {
		t.Fatal("small message did not complete")
	}
	// One-way delivery of 5KB at 25G plus propagation: well under an RTT.
	if fct > 12*sim.Microsecond {
		t.Fatalf("unscheduled FCT = %v, want < 1 base RTT", fct)
	}
}

func TestLargeMessageUsesGrants(t *testing.T) {
	net := homaStar(2, 1, 0)
	src, dst := hostAt(net, 0), hostAt(net, 1)
	size := int64(1 << 20) // 1MiB ≫ RTTBytes (37.5KB at 25G×12µs)
	done := 0
	dst.OnMessageDone = func(c transport.Completion) {
		done++
		if c.Size != size {
			t.Errorf("completed size = %d", c.Size)
		}
	}
	m := src.Send(net.NextFlowID(), dst.ID(), size, 0)
	net.Eng.Run()
	if done != 1 {
		t.Fatal("granted message did not complete")
	}
	if !m.Done() {
		t.Fatal("sender state not released by completion notice")
	}
	if got := dst.ReceivedTotal(); got != size {
		t.Fatalf("received %d", got)
	}
}

func TestSRPTPreference(t *testing.T) {
	// A short message arriving mid-transfer of a long one must finish
	// far sooner than the long one (SRPT grants + priority queues).
	net := homaStar(3, 1, 0)
	long, short, dst := hostAt(net, 0), hostAt(net, 1), hostAt(net, 2)
	finish := map[int64]sim.Time{}
	dst.OnMessageDone = func(c transport.Completion) {
		finish[c.Size] = net.Eng.Now()
	}
	long.Send(net.NextFlowID(), dst.ID(), 4<<20, 0)
	short.Send(net.NextFlowID(), dst.ID(), 100_000, sim.Time(100*sim.Microsecond))
	net.Eng.Run()
	if len(finish) != 2 {
		t.Fatalf("finished %d/2", len(finish))
	}
	if finish[100_000] >= finish[4<<20] {
		t.Fatal("SRPT violated: short message finished after the long one")
	}
}

func TestIncastWithOvercommit(t *testing.T) {
	for _, oc := range []int{1, 3, 6} {
		net := homaStar(9, oc, 0)
		dst := hostAt(net, 0)
		done := 0
		dst.OnMessageDone = func(transport.Completion) { done++ }
		for i := 1; i < 9; i++ {
			hostAt(net, i).Send(net.NextFlowID(), dst.ID(), 400_000, 0)
		}
		net.Eng.RunUntil(sim.Time(50 * sim.Millisecond))
		if done != 8 {
			t.Fatalf("overcommit %d: completed %d/8", oc, done)
		}
	}
}

func TestResendRepairsDrops(t *testing.T) {
	// A tiny shared buffer forces drops of the unscheduled burst; the
	// receiver's hole-repair requests must still complete every message.
	net := homaStar(9, 2, 256) // 25G port → ~6.4KB shared buffer
	dst := hostAt(net, 0)
	done := 0
	dst.OnMessageDone = func(transport.Completion) { done++ }
	for i := 1; i < 9; i++ {
		hostAt(net, i).Send(net.NextFlowID(), dst.ID(), 200_000, 0)
	}
	net.Eng.RunUntil(sim.Time(500 * sim.Millisecond))
	if drops := net.Switches[0].Dropped(); drops == 0 {
		t.Fatal("expected drops under a tiny buffer")
	}
	if done != 8 {
		t.Fatalf("completed %d/8 after drops", done)
	}
}

func TestUnschedPriorityBySize(t *testing.T) {
	// The size→class mapping must be monotone: smaller messages get a
	// higher-preference (numerically lower) unscheduled priority.
	h := new(homa.Host)
	h.Init(sim.New(), 1, homa.Config{BaseRTT: 12 * sim.Microsecond})
	tiny := h.UnschedPriority(1_000)
	mid := h.UnschedPriority(100_000)
	huge := h.UnschedPriority(10 << 20)
	if !(tiny < mid && mid < huge) {
		t.Fatalf("priorities not monotone: %d, %d, %d", tiny, mid, huge)
	}
	if huge > packet.MaxPriority {
		t.Fatalf("priority %d out of range", huge)
	}
}

// dataPacket is a copy of the first packet of message m, as the network
// would deliver it to m's destination.
func dataPacket(net *topo.Network, src packet.NodeID, m *homa.Msg) *packet.Packet {
	p := net.Pool.Get()
	p.Kind = packet.Data
	p.Flow, p.Src, p.Dst, p.MsgID = m.Flow, src, m.Dst, m.ID
	p.SetSeq(0)
	p.PayloadLen = packet.MSS
	p.SetMsgLen(m.Size)
	return p
}

// A finished message keeps its slot marked done: a late duplicate of it
// counts among the raw bytes delivered, not the deduplicated ones, and
// completes nothing twice.
func TestLateDuplicateOfFinishedMessage(t *testing.T) {
	net := homaStar(2, 1, 0)
	src, dst := hostAt(net, 0), hostAt(net, 1)
	done := 0
	dst.OnMessageDone = func(transport.Completion) { done++ }
	m := src.Send(net.NextFlowID(), dst.ID(), 100_000, 0)
	net.Eng.Run()
	if done != 1 || dst.Live() != 0 {
		t.Fatalf("%d completions, %d live messages; want 1 and 0", done, dst.Live())
	}
	total, raw := dst.ReceivedTotal(), dst.DeliveredPayload()
	dst.Receive(dataPacket(net, src.ID(), m))
	if got := dst.ReceivedTotal(); got != total {
		t.Fatalf("ReceivedTotal %d after a late duplicate, want %d", got, total)
	}
	if got := dst.DeliveredPayload(); got != raw+packet.MSS {
		t.Fatalf("DeliveredPayload %d after a late duplicate, want %d", got, raw+packet.MSS)
	}
	if got := dst.ReceivedBytes(m.Flow); got != m.Size {
		t.Fatalf("ReceivedBytes %d, want %d", got, m.Size)
	}
	if done != 1 || dst.Live() != 0 {
		t.Fatalf("%d completions, %d live messages after the duplicate", done, dst.Live())
	}
}

// Once warm, a data packet costs the receiver's scheduler no allocation:
// it sorts the live messages in place.
func TestScheduleAllocatesNothing(t *testing.T) {
	net := homaStar(9, 2, 0)
	dst := hostAt(net, 0)
	var msgs []*homa.Msg
	for i := 1; i < 9; i++ {
		msgs = append(msgs, hostAt(net, i).Send(net.NextFlowID(), dst.ID(), 1<<20, 0))
	}
	net.Eng.RunUntil(sim.Time(20 * sim.Microsecond))
	if dst.Live() != len(msgs) {
		t.Fatalf("%d live messages, want %d", dst.Live(), len(msgs))
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		dst.Receive(dataPacket(net, hostAt(net, 1+i%8).ID(), msgs[i%8]))
		i++
	})
	if allocs != 0 {
		t.Fatalf("a data packet allocates %.1f times", allocs)
	}
}
