package exp

import (
	"cmp"

	"repro/internal/packet"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/units"
)

// RDCN is Figure 8 (the reconfigurable-DCN case study, §5) for one
// scheme: all servers of ToR 0 send long flows to the corresponding
// servers of ToR 1 on the rotor network; the monitored circuit is ToR
// 0's, which reaches ToR 1 once per rotor week. The scheme must be one
// the rotor topology can run (scenario.RotorSupports).
type RDCN struct {
	// Tors is the rack count (default 16, which keeps the rotor week of
	// 3.7 ms comfortably longer than reTCP's 1800 µs prebuffering, like
	// the paper's 25-ToR setup).
	Tors          int
	ServersPerTor int           // default 4
	PacketRate    units.BitRate // packet-network bandwidth (Fig. 8b); default 25 Gbps
	Weeks         int           // simulated rotor weeks; default 3
}

// Name returns "rdcn".
func (RDCN) Name() string { return "rdcn" }

func (p RDCN) run(seed int64, scheme scenario.Scheme) (*scenario.Result, error) {
	p.Tors = cmp.Or(p.Tors, 16)
	p.ServersPerTor = cmp.Or(p.ServersPerTor, 4)
	p.PacketRate = cmp.Or(p.PacketRate, 25*units.Gbps)
	p.Weeks = cmp.Or(p.Weeks, 3)
	return scenario.Run(scenario.Scenario{
		Name:   "rdcn",
		Scheme: scheme,
		Seed:   seed,
		Topology: scenario.RotorTopology{
			Tors:          p.Tors,
			ServersPerTor: p.ServersPerTor,
			PacketRate:    p.PacketRate,
			Weeks:         p.Weeks,
		},
		Traffic: []scenario.Traffic{scenario.RackPairs{
			FromRack: scenario.RackStart(0),
			ToRack:   scenario.RackStart(1),
		}},
		Probes: []scenario.Probe{&rotorPanel{
			srcTor: 0, dstTor: 1, weeks: p.Weeks,
		}},
	})
}

// rotorPeriod is the throughput and VOQ sampling period.
const rotorPeriod = 10 * sim.Microsecond

// rotorPanel is the Figure 8 probe: throughput and VOQ series for the
// monitored ToR pair, per-packet queuing delays at the receiving rack,
// and circuit-byte snapshots at the monitored pair's day boundaries. It
// writes the Fig. 8a series throughput_gbps (receiver side) and voq_kb
// (ToR src's VOQ toward ToR dst), and three scalars:
//
//   - circuit_utilization: of the monitored pair's days (the paper's
//     80–85% headline);
//   - tail_queuing_us: Fig. 8b's metric, the p99 per-packet queuing
//     latency;
//   - avg_goodput_gbps: mean goodput across the run.
type rotorPanel struct {
	srcTor, dstTor int
	weeks          int

	t          []sim.Time
	throughput []float64
	voqKB      []float64
	delays     stats.Dist
	dayBytes   []int64
	lastRx     int64
}

// rxTotal sums what the receiving rack's servers have received.
func (p *rotorPanel) rxTotal(env *scenario.Env) int64 {
	var n int64
	spt := env.Fabric.HostsPerRack
	for i := p.dstTor * spt; i < (p.dstTor+1)*spt; i++ {
		n += env.Lab.ReceivedTotal(i)
	}
	return n
}

func (p *rotorPanel) Install(env *scenario.Env) error {
	net := env.Lab.Net
	rot, eng := net.Rotor, net.Eng
	// Per-packet latency collection at the receiving rack: queuing
	// latency is one-way delay minus the minimum observed (propagation +
	// serialization floor).
	spt := env.Fabric.HostsPerRack
	for i := p.dstTor * spt; i < (p.dstTor+1)*spt; i++ {
		net.TransportHost(i).OnData = func(pkt *packet.Packet) {
			p.delays.Add(eng.Now().Sub(pkt.SentAt()).Seconds())
		}
	}

	scenario.SampleEvery(eng, rotorPeriod, env.Horizon, func(now sim.Time) {
		cur := p.rxTotal(env)
		p.t = append(p.t, now)
		p.throughput = append(p.throughput, stats.Gbps(cur-p.lastRx, rotorPeriod))
		p.voqKB = append(p.voqKB, float64(rot.VOQBytes(p.srcTor, p.dstTor))/1024)
		p.lastRx = cur
	})

	// Track circuit bytes of the monitored pair: snapshot the circuit
	// port's counter at each day boundary of matching ToR0→ToR1.
	circ := rot.CircuitPort(p.srcTor)
	for w := 0; w < p.weeks; w++ {
		start := rot.Sched.NextDayStart(p.srcTor, p.dstTor, sim.Time(sim.Duration(w)*rot.Sched.Week()))
		var atStart uint64
		eng.At(start, func() { atStart = circ.TxBytes() })
		eng.At(start.Add(rot.Sched.Day), func() {
			p.dayBytes = append(p.dayBytes, int64(circ.TxBytes()-atStart))
		})
	}
	return nil
}

func (p *rotorPanel) Finalize(env *scenario.Env, res *scenario.Result) error {
	rot := env.Lab.Net.Rotor

	// Circuit utilization across monitored days.
	cap := topo.RotorCircuitRate.Bytes(rot.Sched.Day)
	var used int64
	for _, b := range p.dayBytes {
		used += b
	}
	var util, tailUs float64
	if len(p.dayBytes) > 0 {
		util = float64(used) / float64(cap*int64(len(p.dayBytes)))
	}
	// Tail queuing latency: p99 one-way delay above the observed floor.
	if p.delays.Count() > 0 {
		floor := p.delays.Percentile(0)
		tailUs = (p.delays.Percentile(99) - floor) * 1e6
	}

	res.SetScalar("circuit_utilization", util)
	res.SetScalar("tail_queuing_us", tailUs)
	res.SetScalar("avg_goodput_gbps", stats.Gbps(p.rxTotal(env), env.Horizon.Duration()))
	res.AddSeries(scenario.TimeSeries("throughput_gbps", p.t, p.throughput))
	res.AddSeries(scenario.TimeSeries("voq_kb", p.t, p.voqKB))
	return nil
}
