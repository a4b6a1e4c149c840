package exp

import (
	"cmp"
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
)

// Asymmetry is the supplementary multipath-lab comparison of ECMP and
// WCMP across unequal spine capacities on two leaves and two spines,
// one at full rate and one at half (100G + 50G): the classic
// heterogeneous-upgrade fabric WCMP papers target. One long flow runs
// from every server on the first leaf to its counterpart on the second,
// so all traffic crosses the spines. Plain ECMP hashes flows uniformly
// and overloads the slow spine; weighted ECMP shares in proportion to
// capacity.
type Asymmetry struct {
	ServersPerTor int          // default 8
	Routing       string       // "", "ecmp", "single", "wecmp"
	Window        sim.Duration // default 4 ms
}

// Name returns "asymmetry".
func (Asymmetry) Name() string { return "asymmetry" }

func (p Asymmetry) run(seed int64, scheme scenario.Scheme) (*scenario.Result, error) {
	p.ServersPerTor = cmp.Or(p.ServersPerTor, 8)
	p.Window = cmp.Or(p.Window, 4*sim.Millisecond)
	if err := checkSpans(span{"Window", p.Window}); err != nil {
		return nil, err
	}
	return scenario.Run(scenario.Scenario{
		Name:   "asymmetry",
		Scheme: scheme,
		Seed:   seed,
		Topology: scenario.LeafSpineTopology{
			Leaves:         2,
			Spines:         2,
			ServersPerLeaf: p.ServersPerTor,
			SpineRates:     []units.BitRate{100 * units.Gbps, 50 * units.Gbps},
			Routing:        p.Routing,
		},
		Traffic: []scenario.Traffic{scenario.RackPairs{
			FromRack: scenario.RackStart(0),
			ToRack:   scenario.RackStart(1),
		}},
		Probes: []scenario.Probe{&asymmetryPanel{window: p.Window}},
		Until:  p.Window,
	})
}

// asymmetryPanel summarizes the asymmetric-core run, how the routing
// strategy shared it: flows; agg_goodput_gbps over the window; jain,
// fairness across the per-flow goodputs; efficiency, agg_goodput_gbps
// over min(total spine, offered) capacity; and spine<i>_util (also the
// spine_util series), the fraction of spine i's configured capacity
// actually carried.
type asymmetryPanel struct {
	window sim.Duration
}

func (p *asymmetryPanel) Install(env *scenario.Env) error { return nil }

func (p *asymmetryPanel) Finalize(env *scenario.Env, res *scenario.Result) error {
	net := env.Lab.Net
	ls := env.Lab.LSCfg
	perLeaf := ls.ServersPerLeaf
	rxBase := (ls.Leaves - 1) * perLeaf

	var sum, sumSq, jain float64
	var aggBytes int64
	for i := 0; i < perLeaf; i++ {
		g := stats.Gbps(env.Lab.ReceivedTotal(rxBase+i), p.window)
		aggBytes += env.Lab.ReceivedTotal(rxBase + i)
		sum += g
		sumSq += g * g
	}
	agg := stats.Gbps(aggBytes, p.window)
	if sumSq > 0 {
		jain = sum * sum / (float64(perLeaf) * sumSq)
	}

	// Spine utilization, measured on leaf 0's uplinks (ports follow the
	// servers, in spine order).
	spineSeries := scenario.Series{Name: "spine_util", XLabel: "spine"}
	var totalSpine units.BitRate
	for sp := 0; sp < ls.Spines; sp++ {
		rate := ls.SpineRate(sp)
		totalSpine += rate
		pt := net.Switches[ls.LeafSwitch(0)].Ports()[perLeaf+sp]
		u := stats.Gbps(int64(pt.TxBytes()), p.window) / float64(rate/units.Gbps)
		res.SetScalar(fmt.Sprintf("spine%d_util", sp), u)
		spineSeries.Points = append(spineSeries.Points, scenario.SeriesPoint{X: float64(sp), V: u})
	}
	offered := float64(perLeaf) * float64(net.HostRate/units.Gbps)
	capacity := float64(totalSpine / units.Gbps)
	if offered < capacity {
		capacity = offered
	}
	var efficiency float64
	if capacity > 0 {
		efficiency = agg / capacity
	}

	res.SetScalar("flows", float64(perLeaf))
	res.SetScalar("agg_goodput_gbps", agg)
	res.SetScalar("jain", jain)
	res.SetScalar("efficiency", efficiency)
	res.SetScalar("engine_steps", float64(env.Steps()))
	res.AddSeries(spineSeries)
	return nil
}
