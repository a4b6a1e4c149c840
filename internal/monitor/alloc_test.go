package monitor_test

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/units"
)

// Telemetry allocs guard (the monitor-side companion of the AllocsPerRun
// tests in internal/sim and internal/link): once a CC monitor's sample
// buffer is sized from run metadata, recording must not allocate.

func TestCCMonitorPresizedSteadyStateAllocs(t *testing.T) {
	mon := monitor.Wrap(core.New(core.Config{}), 0)
	mon.Init(cc.Limits{BaseRTT: 10 * sim.Microsecond, HostRate: 25 * units.Gbps, MSS: 1000})
	const samples = 512
	mon.Presize(samples)
	ack := cc.Ack{Now: sim.Time(sim.Microsecond), RTT: 10 * sim.Microsecond, AckSeq: 1, NewlyAcked: 1000}
	allocs := testing.AllocsPerRun(4, func() {
		mon.Reset()
		for i := 0; i < samples; i++ {
			ack.Now += sim.Time(sim.Microsecond)
			ack.AckSeq++
			mon.OnAck(ack)
		}
	})
	if allocs > 0.5 {
		t.Fatalf("presized monitor allocates %.2f allocs per %d-sample run, want 0", allocs, samples)
	}
	if len(mon.Samples) != samples {
		t.Fatalf("recorded %d samples, want %d", len(mon.Samples), samples)
	}
}
