package core_test

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/swtch"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/units"
)

// rateFromBytes returns the rate that sends n bytes in d.
func rateFromBytes(n int64, d sim.Duration) units.BitRate {
	if d <= 0 {
		return 0
	}
	return units.BitRate(float64(n) * 8 / d.Seconds())
}

// dumbbell builds senders→25G bottleneck→receivers with INT, 100G hosts.
func dumbbell(senders int) *topo.Network {
	return topo.Dumbbell(topo.DumbbellConfig{
		Left:           senders,
		Right:          senders,
		HostRate:       100 * units.Gbps,
		BottleneckRate: 25 * units.Gbps,
		Opts: topo.Options{
			Hosts: topo.TransportHosts(transport.Config{BaseRTT: 16 * sim.Microsecond}),
			INT:   true,
		},
	})
}

// runFor advances the network and samples receiver bytes over a window.
func goodput(net *topo.Network, rx *transport.Host, from, to sim.Duration) units.BitRate {
	net.Eng.RunUntil(sim.Time(from))
	start := rx.ReceivedTotal()
	net.Eng.RunUntil(sim.Time(to))
	return rateFromBytes(rx.ReceivedTotal()-start, to-from)
}

func TestPowerTCPConvergesOnBottleneck(t *testing.T) {
	net := dumbbell(1)
	src, dst := net.TransportHost(0), net.TransportHost(1)
	src.StartFlow(net.NextFlowID(), dst.ID(), transport.Unbounded,
		core.New(core.Config{}), 0)

	rate := goodput(net, dst, 3*sim.Millisecond, 5*sim.Millisecond)
	if rate < 22*units.Gbps {
		t.Fatalf("goodput = %v, want ≈25G (no throughput loss at equilibrium)", rate)
	}
	// Equilibrium queue is β̂ = hostBDP/N per flow — small, not empty, and
	// far from the uncontrolled BDP-sized standing queue of loss-based CC.
	q := net.BottleneckPort().QueueBytes()
	hostBDP := (100 * units.Gbps).BDP(16 * sim.Microsecond)
	if q > hostBDP/2 {
		t.Fatalf("standing queue %dB exceeds half a host BDP (%dB)", q, hostBDP/2)
	}
}

func TestPowerTCPFairnessTwoFlows(t *testing.T) {
	net := dumbbell(2)
	rxA, rxB := net.TransportHost(2), net.TransportHost(3)
	net.TransportHost(0).StartFlow(net.NextFlowID(), rxA.ID(), transport.Unbounded,
		core.New(core.Config{}), 0)
	net.TransportHost(1).StartFlow(net.NextFlowID(), rxB.ID(), transport.Unbounded,
		core.New(core.Config{}), 0)

	net.Eng.RunUntil(sim.Time(4 * sim.Millisecond))
	a0, b0 := rxA.ReceivedTotal(), rxB.ReceivedTotal()
	net.Eng.RunUntil(sim.Time(6 * sim.Millisecond))
	a := float64(rxA.ReceivedTotal() - a0)
	b := float64(rxB.ReceivedTotal() - b0)
	sum, diff := a+b, a-b
	if diff < 0 {
		diff = -diff
	}
	if sum == 0 || diff/sum > 0.15 {
		t.Fatalf("unfair split: %v vs %v bytes", a, b)
	}
	// Aggregate should still fill the bottleneck.
	if got := rateFromBytes(int64(sum), 2*sim.Millisecond); got < 21*units.Gbps {
		t.Fatalf("aggregate goodput = %v", got)
	}
}

func TestThetaPowerTCPHoldsThroughput(t *testing.T) {
	net := dumbbell(1)
	src, dst := net.TransportHost(0), net.TransportHost(1)
	src.StartFlow(net.NextFlowID(), dst.ID(), transport.Unbounded,
		core.NewTheta(core.Config{}), 0)
	rate := goodput(net, dst, 3*sim.Millisecond, 6*sim.Millisecond)
	// θ-PowerTCP cannot see under-utilization (§3.5) so it is allowed to
	// run below line rate, but must stay in a sane band.
	if rate < 15*units.Gbps {
		t.Fatalf("θ-PowerTCP goodput = %v, want ≥15G", rate)
	}
	q := net.BottleneckPort().QueueBytes()
	if q > 200_000 {
		t.Fatalf("θ-PowerTCP standing queue = %dB", q)
	}
}

func TestHPCCBaselineConverges(t *testing.T) {
	net := dumbbell(1)
	src, dst := net.TransportHost(0), net.TransportHost(1)
	src.StartFlow(net.NextFlowID(), dst.ID(), transport.Unbounded, cc.NewHPCC(), 0)
	rate := goodput(net, dst, 3*sim.Millisecond, 6*sim.Millisecond)
	// HPCC targets η=0.95 of the bottleneck.
	if rate < 20*units.Gbps {
		t.Fatalf("HPCC goodput = %v", rate)
	}
	if q := net.BottleneckPort().QueueBytes(); q > 150_000 {
		t.Fatalf("HPCC standing queue = %dB", q)
	}
}

func TestDCTCPStandingQueueVsPowerTCP(t *testing.T) {
	// §2.2: ECN-based CC oscillates around its marking threshold K — a
	// standing queue PowerTCP does not have. Single long flow, 25G
	// bottleneck, K = 65 KB step marking.
	run := func(alg cc.Algorithm, ecn bool) int64 {
		opts := topo.Options{
			Hosts: topo.TransportHosts(transport.Config{BaseRTT: 16 * sim.Microsecond}),
			INT:   true,
		}
		if ecn {
			opts.ECN = swtch.ECNConfig{KMin: 65 << 10, KMax: 65<<10 + 1, PMax: 1}
		}
		net := topo.Dumbbell(topo.DumbbellConfig{
			Left: 1, Right: 1,
			HostRate:       100 * units.Gbps,
			BottleneckRate: 25 * units.Gbps,
			Opts:           opts,
		})
		net.TransportHost(0).StartFlow(net.NextFlowID(), net.HostID(1),
			transport.Unbounded, alg, 0)
		// Mean queue over the steady-state half of the run.
		var sum, n int64
		for at := 3 * sim.Millisecond; at <= 6*sim.Millisecond; at += 50 * sim.Microsecond {
			net.Eng.RunUntil(sim.Time(at))
			sum += net.BottleneckPort().QueueBytes()
			n++
		}
		return sum / n
	}
	dctcpQ := run(cc.NewDCTCP(), true)
	powerQ := run(core.New(core.Config{}), false)
	// DCTCP's mean queue sits in the vicinity of K; PowerTCP's near β̂.
	if dctcpQ < 20_000 {
		t.Fatalf("DCTCP standing queue = %dB, expected ≳K/3 (K=65KB)", dctcpQ)
	}
	if powerQ >= dctcpQ {
		t.Fatalf("PowerTCP queue %dB not below DCTCP's %dB", powerQ, dctcpQ)
	}
}

func TestPowerTCPDrainsIncastQuickly(t *testing.T) {
	// 8 senders slam one receiver through a star; PowerTCP must keep the
	// post-incast queue near zero while finishing all flows.
	net := topo.Star(topo.StarConfig{
		Hosts:    9,
		HostRate: 25 * units.Gbps,
		Opts: topo.Options{
			Hosts:         topo.TransportHosts(transport.Config{BaseRTT: 12 * sim.Microsecond}),
			BufferPerGbps: topo.TofinoBufferPerGbps,
			INT:           true,
		},
	})
	done := 0
	for i := 1; i < 9; i++ {
		h := net.TransportHost(i)
		h.OnFlowDone = func(transport.Completion) { done++ }
		h.StartFlow(net.NextFlowID(), net.HostID(0), 500_000, core.New(core.Config{}), 0)
	}
	net.Eng.Run()
	if done != 8 {
		t.Fatalf("completed %d/8 incast flows", done)
	}
	// All queues empty at the end.
	for _, sw := range net.Switches {
		if used := sw.Shared().Used(); used != 0 {
			t.Fatalf("switch buffer not drained: %dB", used)
		}
	}
}
