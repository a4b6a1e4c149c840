package exp

import (
	"cmp"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Permutation is the supplementary multipath-lab stress: one endless
// flow per host along a host permutation of the §4.1 fat-tree, measuring
// how evenly the routing strategy spreads it — per-flow goodput fairness
// and ToR-uplink load imbalance under ECMP hashing.
type Permutation struct {
	ServersPerTor int // default 8
	// Partitions is scenario.FatTreeTopology.Partitions, a worker count
	// over the fabric's pod shards.
	Partitions int
	// Routing names the multipath strategy ("", "ecmp", "single", "wecmp").
	Routing string
	Window  sim.Duration // default 4 ms
}

// Name returns "permutation".
func (Permutation) Name() string { return "permutation" }

func (p Permutation) run(seed int64, scheme scenario.Scheme) (*scenario.Result, error) {
	p.ServersPerTor = cmp.Or(p.ServersPerTor, 8)
	p.Window = cmp.Or(p.Window, 4*sim.Millisecond)
	if err := checkSpans(span{"Window", p.Window}); err != nil {
		return nil, err
	}
	return scenario.Run(scenario.Scenario{
		Name:     "permutation",
		Scheme:   scheme,
		Seed:     seed,
		Topology: scenario.FatTreeTopology{ServersPerTor: p.ServersPerTor, Routing: p.Routing, Partitions: p.Partitions},
		Traffic:  []scenario.Traffic{scenario.Permutation{}},
		Probes:   []scenario.Probe{&permutationPanel{window: p.Window}},
		Until:    p.Window,
	})
}

// permutationPeriod is the aggregate-rate sampling period.
const permutationPeriod = 50 * sim.Microsecond

// permutationPanel samples the aggregate receive rate, then summarizes
// per-flow goodput fairness and the ToR-uplink load spread. It writes
// the series agg_goodput_gbps (aggregate receive rate per sample) and
// flow_goodput_gbps (per-flow mean goodput over the window), and:
//
//   - flows, and jain: fairness across the per-flow goodputs;
//   - avg_, min_ and max_goodput_gbps over the flows;
//   - uplinks_used: distinct ToR uplink ports that carried traffic, of
//     uplinks_total across all ToRs;
//   - uplink_imbalance: max/mean bytes across the used ToR uplinks.
type permutationPanel struct {
	window sim.Duration

	t       []sim.Time
	aggGbps []float64
	last    []int64
	perFlow []int64 // received bytes per destination host
}

func (p *permutationPanel) Install(env *scenario.Env) error {
	net := env.Lab.Net
	n := len(net.Hosts)
	p.last = make([]int64, n)
	p.perFlow = make([]int64, n)
	scenario.SampleEvery(net.Eng, permutationPeriod, env.Horizon, func(now sim.Time) {
		var delta int64
		for i := 0; i < n; i++ {
			cur := env.Lab.ReceivedTotal(i)
			delta += cur - p.last[i]
			p.perFlow[i] = cur
			p.last[i] = cur
		}
		p.t = append(p.t, now)
		p.aggGbps = append(p.aggGbps, stats.Gbps(delta, permutationPeriod))
	})
	return nil
}

func (p *permutationPanel) Finalize(env *scenario.Env, res *scenario.Result) error {
	net := env.Lab.Net
	n := len(p.perFlow)

	// Per-flow goodput over the whole window (keyed by receiver; each
	// host receives exactly one flow of the permutation).
	flowSeries := scenario.Series{Name: "flow_goodput_gbps", XLabel: "flow"}
	var sum, sumSq, jain, maxG float64
	minG := 1e18
	for i, b := range p.perFlow {
		g := stats.Gbps(b, p.window)
		flowSeries.Points = append(flowSeries.Points, scenario.SeriesPoint{X: float64(i), V: g})
		sum += g
		sumSq += g * g
		minG = min(minG, g)
		maxG = max(maxG, g)
	}
	if sumSq > 0 {
		jain = sum * sum / (float64(n) * sumSq)
	}

	// Uplink spread: walk every ToR's aggregation-facing ports.
	nTors := env.Fabric.Racks
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
	var imbalance float64
	if totB > 0 && used > 0 {
		imbalance = float64(maxB) / (float64(totB) / float64(used))
	}

	res.SetScalar("flows", float64(n))
	res.SetScalar("jain", jain)
	res.SetScalar("avg_goodput_gbps", sum/float64(n))
	res.SetScalar("min_goodput_gbps", minG)
	res.SetScalar("max_goodput_gbps", maxG)
	res.SetScalar("uplinks_used", float64(used))
	res.SetScalar("uplinks_total", float64(nUp))
	res.SetScalar("uplink_imbalance", imbalance)
	res.SetScalar("engine_steps", float64(env.Steps()))
	res.AddSeries(scenario.TimeSeries("agg_goodput_gbps", p.t, p.aggGbps))
	res.AddSeries(flowSeries)
	return nil
}
