package link

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// recycler consumes delivered packets straight back into the pool, like
// a transport endpoint does.
type recycler struct {
	pool *packet.Pool
	got  int
}

func (r *recycler) Receive(p *packet.Packet) {
	r.got++
	r.pool.Put(p)
}

// The port forward path — pool Get, Send, serialize, deliver, pool Put —
// must not allocate per packet in steady state. This is the link half of
// the tentpole's zero-allocation guarantee (the engine half lives in
// internal/sim).
func TestPortZeroAllocSteadyState(t *testing.T) {
	eng := sim.New()
	pool := packet.NewPool()
	dst := &recycler{pool: pool}
	pt := NewPort(eng, 100*units.Gbps, sim.Microsecond, dst)
	pt.Pool = pool

	send := func(n int) {
		for i := 0; i < n; i++ {
			p := pool.Get()
			p.Flow = packet.FlowID(i)
			p.Kind = packet.Data
			p.PayloadLen = 1000
			pt.Send(p)
		}
		eng.Run()
	}
	// Warm the pool, queue ring, engine free list, and the timing
	// wheel's slot ring (each burst advances the clock, so repeated
	// bursts touch — and size — every wheel slot the loop lands in).
	for i := 0; i < 512; i++ {
		send(64)
	}

	allocs := testing.AllocsPerRun(100, func() { send(64) })
	if allocs > 0.5 {
		t.Fatalf("port forward path allocates %.2f allocs per 64-packet burst, want 0", allocs)
	}
	if dst.got == 0 {
		t.Fatal("no packets delivered")
	}
}

// An admission drop must recycle the packet through the port's pool.
func TestPortDropRecycles(t *testing.T) {
	eng := sim.New()
	pool := packet.NewPool()
	dst := &recycler{pool: pool}
	pt := NewPort(eng, 100*units.Gbps, 0, dst)
	pt.Pool = pool
	pt.Dev = &device{admit: func(*packet.Packet) bool { return false }}

	p := pool.Get()
	pt.Send(p)
	eng.Run()
	if pt.Drops() != 1 {
		t.Fatalf("drops = %d, want 1", pt.Drops())
	}
	gets, _, puts := pool.Stats()
	if puts != 1 {
		t.Fatalf("pool puts = %d, want 1 (dropped packet not recycled)", puts)
	}
	if q := pool.Get(); q != p {
		t.Fatal("dropped packet was not the one recycled")
	}
	_ = gets
}
