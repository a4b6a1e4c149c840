package link

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

type sink struct {
	eng  *sim.Engine
	pkts []*packet.Packet
	at   []sim.Time
}

func (s *sink) Receive(p *packet.Packet) {
	s.pkts = append(s.pkts, p)
	s.at = append(s.at, s.eng.Now())
}

// device is a port owner for tests: admit decides admission (nil
// admits everything), a rejected packet is recorded in dropped, and
// dequeued runs at each dequeue.
type device struct {
	admit    func(p *packet.Packet) bool
	dequeued func(p *packet.Packet)
	dropped  []*packet.Packet
}

func (d *device) Admit(_ *Port, p *packet.Packet) bool {
	if d.admit == nil || d.admit(p) {
		return true
	}
	d.dropped = append(d.dropped, p)
	return false
}

func (d *device) OnDequeue(_ *Port, p *packet.Packet) {
	if d.dequeued != nil {
		d.dequeued(p)
	}
}

func mk(flow packet.FlowID, payload int32) *packet.Packet {
	return &packet.Packet{Flow: flow, Kind: packet.Data, PayloadLen: payload}
}

func TestPortTiming(t *testing.T) {
	eng := sim.New()
	dst := &sink{eng: eng}
	pt := NewPort(eng, 100*units.Gbps, 5*sim.Microsecond, dst)
	p := mk(1, 1000) // wire = 1048B → 83.84ns at 100G
	pt.Send(p)
	eng.Run()
	if len(dst.pkts) != 1 {
		t.Fatalf("delivered %d packets", len(dst.pkts))
	}
	want := sim.Time(83840*sim.Picosecond + 5*sim.Microsecond)
	if dst.at[0] != want {
		t.Fatalf("arrival at %v, want %v", dst.at[0], want)
	}
	if pt.TxBytes() != 1048 {
		t.Fatalf("TxBytes = %d", pt.TxBytes())
	}
}

func TestPortBackToBackSerialization(t *testing.T) {
	eng := sim.New()
	dst := &sink{eng: eng}
	pt := NewPort(eng, 100*units.Gbps, 0, dst)
	pt.Send(mk(1, 1000))
	pt.Send(mk(2, 1000))
	eng.Run()
	if len(dst.pkts) != 2 {
		t.Fatalf("delivered %d", len(dst.pkts))
	}
	gap := dst.at[1] - dst.at[0]
	if sim.Duration(gap) != 83840*sim.Picosecond {
		t.Fatalf("inter-arrival = %v, want one serialization time", sim.Duration(gap))
	}
}

func TestPortAdmissionDrop(t *testing.T) {
	eng := sim.New()
	dst := &sink{eng: eng}
	pt := NewPort(eng, 100*units.Gbps, 0, dst)
	dev := &device{admit: func(p *packet.Packet) bool { return p.Flow != 2 }}
	pt.Dev = dev
	pt.Send(mk(1, 100))
	pt.Send(mk(2, 100))
	pt.Send(mk(3, 100))
	eng.Run()
	if dropped := dev.dropped; len(dst.pkts) != 2 || pt.Drops() != 1 || len(dropped) != 1 || dropped[0].Flow != 2 {
		t.Fatalf("delivered=%d drops=%d", len(dst.pkts), pt.Drops())
	}
}

func TestPortOnDequeueSeesQueueState(t *testing.T) {
	eng := sim.New()
	dst := &sink{eng: eng}
	pt := NewPort(eng, 100*units.Gbps, 0, dst)
	var qlens []int64
	pt.Dev = &device{dequeued: func(p *packet.Packet) { qlens = append(qlens, pt.QueueBytes()) }}
	pt.Send(mk(1, 1000))
	pt.Send(mk(2, 1000))
	pt.Send(mk(3, 1000))
	eng.Run()
	// The first Send dequeues immediately onto an idle serializer, so the
	// hook sees an empty queue; packets 2 and 3 then queue behind it and
	// the hook sees the bytes still waiting after each pop.
	want := []int64{0, 1048, 0}
	for i := range want {
		if qlens[i] != want[i] {
			t.Fatalf("qlen[%d] = %d, want %d", i, qlens[i], want[i])
		}
	}
}

func TestPortPauseResume(t *testing.T) {
	eng := sim.New()
	dst := &sink{eng: eng}
	pt := NewPort(eng, 100*units.Gbps, 0, dst)
	pt.Pause()
	pt.Send(mk(1, 100))
	eng.RunUntil(sim.Time(sim.Millisecond))
	if len(dst.pkts) != 0 {
		t.Fatal("paused port transmitted")
	}
	pt.Resume()
	eng.Run()
	if len(dst.pkts) != 1 {
		t.Fatal("resumed port did not transmit")
	}
	pt.Resume() // resume when not paused is a no-op
}

func TestPortFIFOOrderPreserved(t *testing.T) {
	eng := sim.New()
	dst := &sink{eng: eng}
	pt := NewPort(eng, 25*units.Gbps, sim.Microsecond, dst)
	for i := packet.FlowID(0); i < 50; i++ {
		pt.Send(mk(i, 500))
	}
	eng.Run()
	for i, p := range dst.pkts {
		if p.Flow != packet.FlowID(i) {
			t.Fatalf("reordered: pkt %d has flow %d", i, p.Flow)
		}
	}
}

// A wire cut with packets in flight loses exactly those packets, at
// their delivery instants; packets serialized onto the dead wire are
// lost at once. After the wire is restored the next packet is
// delivered, in order, one serialization plus the delay after it left.
func TestPortWireDownLosesInFlight(t *testing.T) {
	eng := sim.New()
	dst := &sink{eng: eng}
	pool := packet.NewPool()
	pt := NewPort(eng, 100*units.Gbps, 5*sim.Microsecond, dst)
	pt.Pool = pool
	for i := packet.FlowID(1); i <= 3; i++ {
		p := pool.Get()
		p.Flow, p.Kind, p.PayloadLen = i, packet.Data, 1000
		pt.Send(p)
	}
	// 1µs in, all three have left the serializer (84 ns each) and none
	// has arrived (5 µs of delay): the cut catches them on the wire.
	eng.RunUntil(sim.Time(sim.Microsecond))
	pt.SetDown(true)
	p := pool.Get()
	p.Flow, p.Kind, p.PayloadLen = 4, packet.Data, 1000
	pt.Send(p) // serialized into the cut cable
	eng.RunUntil(sim.Time(10 * sim.Microsecond))
	if len(dst.pkts) != 0 || pt.Lost() != 4 {
		t.Fatalf("delivered %d, lost %d across the cut; want 0 and 4", len(dst.pkts), pt.Lost())
	}
	if pt.PayloadLost() != 4000 || pt.PayloadOnWire() != 0 {
		t.Fatalf("payload lost %d, on wire %d; want 4000 and 0", pt.PayloadLost(), pt.PayloadOnWire())
	}
	pt.SetDown(false)
	for i := packet.FlowID(5); i <= 6; i++ {
		p := pool.Get()
		p.Flow, p.Kind, p.PayloadLen = i, packet.Data, 1000
		pt.Send(p)
	}
	eng.Run()
	if len(dst.pkts) != 2 || dst.pkts[0].Flow != 5 || dst.pkts[1].Flow != 6 {
		t.Fatalf("after restore delivered %v, want flows 5 then 6", dst.pkts)
	}
	want := sim.Time(10*sim.Microsecond + 83840*sim.Picosecond + 5*sim.Microsecond)
	if dst.at[0] != want {
		t.Fatalf("first packet after restore arrived at %v, want %v", dst.at[0], want)
	}
	if _, _, puts := pool.Stats(); puts != 4 {
		t.Fatalf("pool puts = %d, want the 4 lost packets", puts)
	}
}

// Ports carved from a block work like NewPort's: each has its own FIFO
// and serializer. A block with no reservation grows by a whole array.
func TestBlockCarvesWorkingPorts(t *testing.T) {
	eng := sim.New()
	var b Block
	dsts := []*sink{{eng: eng}, {eng: eng}, {eng: eng}}
	var pts []*Port
	for _, d := range dsts {
		pts = append(pts, b.NewPort(eng, 100*units.Gbps, sim.Microsecond, d))
	}
	if b.Spare() != blockLen-len(dsts) {
		t.Fatalf("spare = %d after %d ports, want %d", b.Spare(), len(dsts), blockLen-len(dsts))
	}
	for i, pt := range pts {
		pt.Send(mk(packet.FlowID(i), 1000))
		pt.Send(mk(packet.FlowID(i), 1000))
	}
	eng.Run()
	for i, d := range dsts {
		if len(d.pkts) != 2 || d.pkts[0].Flow != packet.FlowID(i) || pts[i].TxPackets() != 2 {
			t.Fatalf("port %d delivered %d packets, sent %d", i, len(d.pkts), pts[i].TxPackets())
		}
	}
}
