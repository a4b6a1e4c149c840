package monitor_test

import (
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/units"
)

func buildStar() *topo.Network {
	return topo.Star(topo.StarConfig{
		Hosts:    2,
		HostRate: 25 * units.Gbps,
		Opts: topo.Options{
			Hosts: topo.TransportHosts(transport.Config{BaseRTT: 10 * sim.Microsecond}),
			INT:   true,
		},
	})
}

func TestCCMonitorRecordsAndIsTransparent(t *testing.T) {
	// Run the same flow with and without the monitor: identical FCT.
	run := func(alg cc.Algorithm) (sim.Duration, int) {
		net := buildStar()
		src, dst := net.TransportHost(0), net.TransportHost(1)
		f := src.StartFlow(net.NextFlowID(), dst.ID(), 500_000, alg, 0)
		net.Eng.Run()
		samples := 0
		if m, ok := alg.(*monitor.CC); ok {
			samples = len(m.Samples)
		}
		return f.FCT(), samples
	}
	plainFCT, _ := run(core.New(core.Config{}))
	mon := monitor.Wrap(core.New(core.Config{}), 0)
	monFCT, n := run(mon)
	if plainFCT != monFCT {
		t.Fatalf("monitor changed behaviour: %v vs %v", plainFCT, monFCT)
	}
	if n == 0 {
		t.Fatal("no samples recorded")
	}
	// Per-ACK sampling: one sample per received ACK (500 packets).
	if n < 400 {
		t.Fatalf("only %d samples", n)
	}
}

func TestCCMonitorSamplingPeriod(t *testing.T) {
	net := buildStar()
	src, dst := net.TransportHost(0), net.TransportHost(1)
	mon := monitor.Wrap(core.New(core.Config{}), 100*sim.Microsecond)
	src.StartFlow(net.NextFlowID(), dst.ID(), 2_000_000, mon, 0)
	net.Eng.Run()
	// 2MB at ≈25G lasts ≈700µs: expect single-digit samples, not ~2000.
	if len(mon.Samples) > 30 {
		t.Fatalf("period ignored: %d samples", len(mon.Samples))
	}
}

func TestCCMonitorForwardsExtensions(t *testing.T) {
	m := monitor.Wrap(cc.NewDCQCN(), 0)
	if !m.ECT() {
		t.Fatal("ECT not forwarded")
	}
	lim := cc.Limits{BaseRTT: 10 * sim.Microsecond, HostRate: 25 * units.Gbps, MSS: 1000}
	m.Init(lim)
	before := m.Rate()
	m.OnCNP(0)
	if m.Rate() >= before {
		t.Fatal("CNP not forwarded to DCQCN")
	}
	m.Stop()
	if got := m.Name(); !strings.Contains(got, "dcqcn") {
		t.Fatalf("name = %q", got)
	}
}
