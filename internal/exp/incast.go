package exp

import (
	"cmp"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Incast is one panel of Figure 4 (10:1 and 255:1) and of Figures 10–11
// (HOMA overcommitment): a long flow into the receiver, then after a
// 500 µs head start a FanIn:1 incast pulse of 500 KB per responder from
// senders in other racks hits it. Receiver throughput and the bottleneck
// queue are sampled every 20 µs.
type Incast struct {
	FanIn int // default 10
	// ServersPerTor scales the fat-tree (default 8; 32 is the paper's
	// §4.1 fabric).
	ServersPerTor int
	// Partitions is scenario.FatTreeTopology.Partitions, a worker count
	// over the fabric's pod shards: output is byte-identical at any count.
	Partitions int
	Window     sim.Duration // observation window after the head start; default 4 ms
}

// The pulse's bytes per responder, the long flow's head start and the
// sampling period.
const (
	incastFlowSize = 500_000
	incastWarmup   = 500 * sim.Microsecond
	incastPeriod   = 20 * sim.Microsecond
)

// Name returns "incast".
func (Incast) Name() string { return "incast" }

func (p Incast) run(seed int64, scheme scenario.Scheme) (*scenario.Result, error) {
	p.FanIn = cmp.Or(p.FanIn, 10)
	p.ServersPerTor = cmp.Or(p.ServersPerTor, 8)
	p.Window = cmp.Or(p.Window, 4*sim.Millisecond)
	if err := checkSpans(span{"Window", p.Window}); err != nil {
		return nil, err
	}
	return scenario.Run(scenario.Scenario{
		Name:     "incast",
		Scheme:   scheme,
		Seed:     seed,
		Topology: scenario.FatTreeTopology{ServersPerTor: p.ServersPerTor, Partitions: p.Partitions},
		Traffic: []scenario.Traffic{
			// Long flow from the last rack toward the receiver.
			scenario.Flows{List: []scenario.FlowSpec{{
				Src: scenario.HostFromEnd(1), Dst: scenario.Host(0), Size: scenario.Unbounded,
			}}},
			// FanIn cross-rack senders fire together after the head
			// start. The span excludes the long flow's sender at the end
			// of the host range.
			scenario.IncastPulse{
				At:       incastWarmup,
				Receiver: scenario.Host(0),
				FanIn:    p.FanIn,
				FlowSize: incastFlowSize,
				Senders:  scenario.Span{From: scenario.RackStart(1), To: scenario.HostFromEnd(1)},
			},
		},
		Probes: []scenario.Probe{
			&incastPanel{receiver: 0},
			scenario.AccountingProbe{},
		},
		Until: incastWarmup + p.Window,
	})
}

// incastPanel is the Figure 4 probe (and Figures 10–11's, for HOMA's
// overcommitment appendix): one sampler records receiver throughput and
// the bottleneck ToR queue, and the finalizer writes both as series and
// these scalars:
//
//   - fan_in: the incast flows actually launched;
//   - peak_queue_kb, and end_queue_kb, the queue at the end: did
//     congestion resolve?
//   - tail_mean_queue_kb: the mean queue over the last quarter of the
//     window;
//   - avg_goodput_gbps: receiver goodput over the window;
//   - completed: incast flows finished inside the window.
type incastPanel struct {
	receiver int

	fanIn     int
	t         []sim.Time
	gbps      []float64
	queueKB   []float64
	lastBytes int64
}

func (p *incastPanel) Install(env *scenario.Env) error {
	net := env.Lab.Net
	// The bottleneck is the receiver's ToR egress port (ports are created
	// per server in order, so port i%perRack faces the host).
	perRack := env.Fabric.HostsPerRack
	port := net.Switches[p.receiver/perRack].Ports()[p.receiver%perRack]

	// The incast fan-in actually launched: pulse flows carry incastFlowSize.
	for _, f := range env.Launched {
		if f.Size == incastFlowSize {
			p.fanIn++
		}
	}

	// The sampler runs at a fixed period from t=0 to the fixed horizon,
	// so the series length is run metadata: allocate the samples once.
	n := int(env.Horizon.Duration()/incastPeriod) + 2
	p.t, p.gbps, p.queueKB = make([]sim.Time, 0, n), make([]float64, 0, n), make([]float64, 0, n)
	scenario.SampleEvery(net.Eng, incastPeriod, env.Horizon, func(now sim.Time) {
		cur := env.Lab.ReceivedTotal(p.receiver)
		p.t = append(p.t, now)
		p.gbps = append(p.gbps, stats.Gbps(cur-p.lastBytes, incastPeriod))
		p.queueKB = append(p.queueKB, float64(port.QueueBytes())/1024)
		p.lastBytes = cur
	})
	return nil
}

func (p *incastPanel) Finalize(env *scenario.Env, res *scenario.Result) error {
	var peak, sumTp, avg, end, tailMean float64
	for i, q := range p.queueKB {
		peak = max(peak, q)
		sumTp += p.gbps[i]
	}
	if n := len(p.queueKB); n > 0 {
		avg = sumTp / float64(n)
		end = p.queueKB[n-1]
		k := n / 4
		if k == 0 {
			k = 1
		}
		var tail float64
		for _, q := range p.queueKB[n-k:] {
			tail += q
		}
		tailMean = tail / float64(k)
	}
	completed := 0
	for _, r := range env.Lab.Records {
		if r.Size == incastFlowSize {
			completed++
		}
	}

	res.SetScalar("fan_in", float64(p.fanIn))
	res.SetScalar("engine_steps", float64(env.Steps()))
	res.SetScalar("peak_queue_kb", peak)
	res.SetScalar("end_queue_kb", end)
	res.SetScalar("tail_mean_queue_kb", tailMean)
	res.SetScalar("avg_goodput_gbps", avg)
	res.SetScalar("completed", float64(completed))
	res.AddSeries(scenario.TimeSeries("throughput_gbps", p.t, p.gbps))
	res.AddSeries(scenario.TimeSeries("queue_kb", p.t, p.queueKB))
	return nil
}
