package exp

import (
	"cmp"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TimePoint is one sample of the Figure 4 time series.
type TimePoint struct {
	T              sim.Time
	ThroughputGbps float64
	QueueKB        float64
}

// IncastResult is the typed payload behind one Figure 4 panel (and
// Figures 10–11 for HOMA's overcommitment appendix).
type IncastResult struct {
	Scheme          string
	FanIn           int
	Points          []TimePoint
	PeakQueueKB     float64
	AvgGoodputGbps  float64 // receiver goodput over the window
	EndQueueKB      float64 // queue at the end: did congestion resolve?
	TailMeanQueueKB float64 // mean queue over the last quarter of the window
	Completed       int     // incast flows finished inside the window
}

// Incast is one panel of Figure 4 (10:1 and 255:1) and of Figures 10–11
// (HOMA overcommitment): a long flow into the receiver, then at Warmup
// a FanIn:1 incast pulse from senders in other racks hits it.
type Incast struct {
	FanIn    int   // default 10
	FlowSize int64 // bytes per responder; default 500 KB
	// ServersPerTor scales the fat-tree (default 8; 32 is the paper's
	// §4.1 fabric).
	ServersPerTor int
	// Partitions is scenario.FatTreeTopology.Partitions: output is
	// byte-identical at any count.
	Partitions   int
	Window       sim.Duration // observation window after Warmup; default 4 ms
	Warmup       sim.Duration // long-flow head start; default 500 µs
	SamplePeriod sim.Duration // default 20 µs
}

// Name returns "incast".
func (Incast) Name() string { return "incast" }

func (p Incast) run(seed int64, scheme scenario.Scheme) (*scenario.Result, error) {
	p.FanIn = cmp.Or(p.FanIn, 10)
	p.ServersPerTor = cmp.Or(p.ServersPerTor, 8)
	p.FlowSize = cmp.Or(p.FlowSize, 500_000)
	p.Window = cmp.Or(p.Window, 4*sim.Millisecond)
	p.Warmup = cmp.Or(p.Warmup, 500*sim.Microsecond)
	p.SamplePeriod = cmp.Or(p.SamplePeriod, 20*sim.Microsecond)
	if err := checkSpans(span{"Window", p.Window}, span{"SamplePeriod", p.SamplePeriod}); err != nil {
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
			// FanIn cross-rack senders fire together at Warmup. The span
			// excludes the long flow's sender at the end of the host range.
			scenario.IncastPulse{
				At:       p.Warmup,
				Receiver: scenario.Host(0),
				FanIn:    p.FanIn,
				FlowSize: p.FlowSize,
				Senders:  scenario.Span{From: scenario.RackStart(1), To: scenario.HostFromEnd(1)},
			},
		},
		Probes: []scenario.Probe{
			&incastPanel{receiver: 0, flowSize: p.FlowSize, period: p.SamplePeriod},
			scenario.AccountingProbe{},
		},
		Until: p.Warmup + p.Window,
	})
}

// incastPanel is the Figure 4 probe: one sampler records receiver
// throughput and the bottleneck ToR queue, and the finalizer summarizes
// peak/end/tail queue and goodput.
type incastPanel struct {
	receiver int
	flowSize int64
	period   sim.Duration

	ic        *IncastResult
	lastBytes int64
}

func (p *incastPanel) Install(env *scenario.Env) error {
	net := env.Lab.Net
	// The bottleneck is the receiver's ToR egress port (ports are created
	// per server in order, so port i%perRack faces the host).
	perRack := env.Fabric.HostsPerRack
	port := net.Switches[p.receiver/perRack].Ports()[p.receiver%perRack]

	// The incast fan-in actually launched: pulse flows carry FlowSize.
	fanIn := 0
	for _, f := range env.Launched {
		if f.Size == p.flowSize {
			fanIn++
		}
	}

	// The sampler runs at a fixed period from t=0 to the fixed horizon,
	// so the series length is run metadata: allocate the points once.
	p.ic = &IncastResult{
		Scheme: env.Scheme.Name, FanIn: fanIn,
		Points: make([]TimePoint, 0, int(env.Horizon.Duration()/p.period)+2),
	}
	scenario.SampleEvery(net.Eng, p.period, env.Horizon, func(now sim.Time) {
		cur := env.Lab.ReceivedTotal(p.receiver)
		tp := TimePoint{
			T:              now,
			ThroughputGbps: stats.Gbps(cur-p.lastBytes, p.period),
			QueueKB:        float64(port.QueueBytes()) / 1024,
		}
		p.lastBytes = cur
		p.ic.Points = append(p.ic.Points, tp)
	})
	return nil
}

func (p *incastPanel) Finalize(env *scenario.Env, res *scenario.Result) error {
	ic := p.ic
	var sumTp float64
	for _, pt := range ic.Points {
		if pt.QueueKB > ic.PeakQueueKB {
			ic.PeakQueueKB = pt.QueueKB
		}
		sumTp += pt.ThroughputGbps
	}
	if n := len(ic.Points); n > 0 {
		ic.AvgGoodputGbps = sumTp / float64(n)
		ic.EndQueueKB = ic.Points[n-1].QueueKB
		k := n / 4
		if k == 0 {
			k = 1
		}
		var tail float64
		for _, pt := range ic.Points[n-k:] {
			tail += pt.QueueKB
		}
		ic.TailMeanQueueKB = tail / float64(k)
	}
	for _, r := range env.Lab.Records {
		if r.Size == p.flowSize {
			ic.Completed++
		}
	}

	res.Raw = ic
	res.SetScalar("fan_in", float64(ic.FanIn))
	res.SetScalar("engine_steps", float64(env.Steps()))
	res.SetScalar("peak_queue_kb", ic.PeakQueueKB)
	res.SetScalar("end_queue_kb", ic.EndQueueKB)
	res.SetScalar("tail_mean_queue_kb", ic.TailMeanQueueKB)
	res.SetScalar("avg_goodput_gbps", ic.AvgGoodputGbps)
	res.SetScalar("completed", float64(ic.Completed))
	ts := make([]sim.Time, len(ic.Points))
	tp := make([]float64, len(ic.Points))
	qs := make([]float64, len(ic.Points))
	for i, pt := range ic.Points {
		ts[i], tp[i], qs[i] = pt.T, pt.ThroughputGbps, pt.QueueKB
	}
	res.AddSeries(scenario.TimeSeries("throughput_gbps", ts, tp))
	res.AddSeries(scenario.TimeSeries("queue_kb", ts, qs))
	return nil
}
