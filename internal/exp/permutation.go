package exp

import (
	"cmp"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// PermutationResult is the typed payload of the host-permutation
// multipath experiment: per-flow goodput under hash-based path
// assignment, plus how the ToR uplinks actually shared the load.
type PermutationResult struct {
	Scheme          string
	Routing         string
	Flows           int
	T               []sim.Time
	AggGbps         []float64 // aggregate receive rate per sample
	PerFlowGbps     []float64 // per-flow mean goodput over the window
	Jain            float64   // fairness across the per-flow goodputs
	MinGbps         float64
	MaxGbps         float64
	UplinksUsed     int     // distinct ToR uplink ports that carried traffic
	UplinksTotal    int     // uplink ports available across all ToRs
	UplinkImbalance float64 // max/mean bytes across used ToR uplinks
}

// Permutation is the supplementary multipath-lab stress: one endless
// flow per host along a host permutation of the §4.1 fat-tree, measuring
// how evenly the routing strategy spreads it — per-flow goodput fairness
// and ToR-uplink load imbalance under ECMP hashing.
type Permutation struct {
	ServersPerTor int // default 8
	// Partitions is scenario.FatTreeTopology.Partitions.
	Partitions int
	// Routing names the multipath strategy ("", "ecmp", "single", "wecmp").
	Routing      string
	Window       sim.Duration // default 4 ms
	SamplePeriod sim.Duration // default 50 µs
}

// Name returns "permutation".
func (Permutation) Name() string { return "permutation" }

func (p Permutation) run(seed int64, scheme scenario.Scheme) (*scenario.Result, error) {
	p.ServersPerTor = cmp.Or(p.ServersPerTor, 8)
	p.Window = cmp.Or(p.Window, 4*sim.Millisecond)
	p.SamplePeriod = cmp.Or(p.SamplePeriod, 50*sim.Microsecond)
	if err := checkSpans(span{"Window", p.Window}, span{"SamplePeriod", p.SamplePeriod}); err != nil {
		return nil, err
	}
	return scenario.Run(scenario.Scenario{
		Name:     "permutation",
		Scheme:   scheme,
		Seed:     seed,
		Topology: scenario.FatTreeTopology{ServersPerTor: p.ServersPerTor, Routing: p.Routing, Partitions: p.Partitions},
		Traffic:  []scenario.Traffic{scenario.Permutation{}},
		Probes:   []scenario.Probe{&permutationPanel{period: p.SamplePeriod, window: p.Window}},
		Until:    p.Window,
	})
}

// permutationPanel samples the aggregate receive rate, then summarizes
// per-flow goodput fairness and the ToR-uplink load spread.
type permutationPanel struct {
	period sim.Duration
	window sim.Duration

	pr      *PermutationResult
	last    []int64
	perFlow []int64 // received bytes per destination host
}

func (p *permutationPanel) Install(env *scenario.Env) error {
	net := env.Lab.Net
	n := len(net.Hosts)
	p.pr = &PermutationResult{Scheme: env.Scheme.Name, Routing: net.Router.Strategy().Name(), Flows: n}
	p.last = make([]int64, n)
	p.perFlow = make([]int64, n)
	scenario.SampleEvery(net.Eng, p.period, env.Horizon, func(now sim.Time) {
		var delta int64
		for i := 0; i < n; i++ {
			cur := env.Lab.ReceivedTotal(i)
			delta += cur - p.last[i]
			p.perFlow[i] = cur
			p.last[i] = cur
		}
		p.pr.T = append(p.pr.T, now)
		p.pr.AggGbps = append(p.pr.AggGbps, stats.Gbps(delta, p.period))
	})
	return nil
}

func (p *permutationPanel) Finalize(env *scenario.Env, res *scenario.Result) error {
	pr := p.pr
	net := env.Lab.Net
	n := pr.Flows

	// Per-flow goodput over the whole window (keyed by receiver; each
	// host receives exactly one flow of the permutation).
	var sum, sumSq float64
	pr.MinGbps = 1e18
	for i := 0; i < n; i++ {
		g := stats.Gbps(p.perFlow[i], p.window)
		pr.PerFlowGbps = append(pr.PerFlowGbps, g)
		sum += g
		sumSq += g * g
		if g < pr.MinGbps {
			pr.MinGbps = g
		}
		if g > pr.MaxGbps {
			pr.MaxGbps = g
		}
	}
	if sumSq > 0 {
		pr.Jain = sum * sum / (float64(n) * sumSq)
	}

	// Uplink spread: walk every ToR's aggregation-facing ports.
	nTors := env.Lab.FTCfg.Racks()
	var used int
	var maxB, totB uint64
	var nUp int
	for t := 0; t < nTors; t++ {
		for _, pi := range net.TorUplinkPorts(t) {
			b := net.Switches[t].Ports()[pi].TxBytes()
			nUp++
			totB += b
			if b > 0 {
				used++
			}
			if b > maxB {
				maxB = b
			}
		}
	}
	pr.UplinksTotal = nUp
	pr.UplinksUsed = used
	if totB > 0 && used > 0 {
		pr.UplinkImbalance = float64(maxB) / (float64(totB) / float64(used))
	}

	res.Raw = pr
	res.SetScalar("flows", float64(pr.Flows))
	res.SetScalar("jain", pr.Jain)
	res.SetScalar("avg_goodput_gbps", sum/float64(n))
	res.SetScalar("min_goodput_gbps", pr.MinGbps)
	res.SetScalar("max_goodput_gbps", pr.MaxGbps)
	res.SetScalar("uplinks_used", float64(pr.UplinksUsed))
	res.SetScalar("uplinks_total", float64(pr.UplinksTotal))
	res.SetScalar("uplink_imbalance", pr.UplinkImbalance)
	res.SetScalar("engine_steps", float64(net.Steps()))
	res.AddSeries(scenario.TimeSeries("agg_goodput_gbps", pr.T, pr.AggGbps))
	flowSeries := scenario.Series{Name: "flow_goodput_gbps", XLabel: "flow"}
	for i, g := range pr.PerFlowGbps {
		flowSeries.Points = append(flowSeries.Points, scenario.SeriesPoint{X: float64(i), V: g})
	}
	res.AddSeries(flowSeries)
	return nil
}
