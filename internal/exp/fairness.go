package exp

import (
	"cmp"
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// FairnessResult carries per-flow throughput series (Figure 5, and
// Figure 9 for HOMA's overcommitment levels).
type FairnessResult struct {
	Scheme  string
	T       []sim.Time
	Per     [][]float64 // Per[i][k]: flow i's Gbps at sample k
	JainAvg float64     // mean Jain index over samples with ≥2 active flows
}

// Fairness is Figure 5 (staggered arrivals) and Figure 9 (HOMA
// overcommitment): Flows staggered senders to one receiver over a single
// 25G bottleneck.
type Fairness struct {
	Flows   int          // default 4
	Stagger sim.Duration // arrival spacing; default 1 ms
	// Sizes are the transfer sizes in arrival order. The default is chosen
	// so at 25G fair sharing the flows finish in arrival order, giving the
	// arrive-and-leave staircase of Fig. 5.
	Sizes        []int64
	Window       sim.Duration // default 8 ms
	SamplePeriod sim.Duration // default 50 µs
}

// Name returns "fairness".
func (Fairness) Name() string { return "fairness" }

func (p Fairness) run(seed int64, scheme scenario.Scheme) (*scenario.Result, error) {
	p.Flows = cmp.Or(p.Flows, 4)
	p.Stagger = cmp.Or(p.Stagger, sim.Millisecond)
	p.Window = cmp.Or(p.Window, 8*sim.Millisecond)
	p.SamplePeriod = cmp.Or(p.SamplePeriod, 50*sim.Microsecond)
	if len(p.Sizes) == 0 {
		p.Sizes = []int64{9 << 20, 6 << 20, 4 << 20, 2 << 20}[:max(0, min(p.Flows, 4))]
		for len(p.Sizes) < p.Flows {
			p.Sizes = append(p.Sizes, 2<<20)
		}
	}
	if err := checkSpans(span{"Window", p.Window}, span{"SamplePeriod", p.SamplePeriod}); err != nil {
		return nil, err
	}
	return scenario.Run(scenario.Scenario{
		Name:     "fairness",
		Scheme:   scheme,
		Seed:     seed,
		Topology: scenario.StarTopology{Hosts: p.Flows + 1},
		Traffic: []scenario.Traffic{scenario.Staggered{
			Receiver:    scenario.Host(0),
			FirstSender: scenario.Host(1),
			Count:       p.Flows,
			Stagger:     p.Stagger,
			Sizes:       p.Sizes,
		}},
		Probes: []scenario.Probe{&fairnessPanel{receiver: 0, period: p.SamplePeriod}},
		Until:  p.Window,
	})
}

// fairnessPanel samples every launched flow's receive rate and averages
// the Jain fairness index over samples with ≥2 active flows.
type fairnessPanel struct {
	receiver int
	period   sim.Duration

	fr      *FairnessResult
	last    []int64
	jainSum float64
	jainN   int
}

func (p *fairnessPanel) Install(env *scenario.Env) error {
	flows := len(env.Launched)
	p.fr = &FairnessResult{Scheme: env.Scheme.Name, Per: make([][]float64, flows)}
	p.last = make([]int64, flows)
	scenario.SampleEvery(env.Eng(), p.period, env.Horizon, func(now sim.Time) {
		p.fr.T = append(p.fr.T, now)
		var sum, sumSq float64
		active := 0
		for i := 0; i < flows; i++ {
			cur := env.Lab.ReceivedBytes(p.receiver, env.Launched[i].ID)
			g := stats.Gbps(cur-p.last[i], p.period)
			p.last[i] = cur
			p.fr.Per[i] = append(p.fr.Per[i], g)
			if g > 0.5 {
				active++
				sum += g
				sumSq += g * g
			}
		}
		if active >= 2 && sumSq > 0 {
			p.jainSum += sum * sum / (float64(active) * sumSq)
			p.jainN++
		}
	})
	return nil
}

func (p *fairnessPanel) Finalize(env *scenario.Env, res *scenario.Result) error {
	if p.jainN > 0 {
		p.fr.JainAvg = p.jainSum / float64(p.jainN)
	}
	res.Raw = p.fr
	res.SetScalar("jain", p.fr.JainAvg)
	res.SetScalar("flows", float64(len(p.fr.Per)))
	res.SetScalar("engine_steps", float64(env.Steps()))
	for i := range p.fr.Per {
		res.AddSeries(scenario.TimeSeries(fmt.Sprintf("flow%d_gbps", i+1), p.fr.T, p.fr.Per[i]))
	}
	return nil
}
