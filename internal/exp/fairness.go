package exp

import (
	"cmp"
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Fairness is Figure 5 (staggered arrivals) and Figure 9 (HOMA
// overcommitment): Flows senders to one receiver over a single 25G
// bottleneck, arriving 1 ms apart. The first four send 9, 6, 4 and
// 2 MiB and any more 2 MiB, so at 25G fair sharing the flows finish in
// arrival order, giving the arrive-and-leave staircase of Fig. 5. Each
// flow's receive rate is sampled every 50 µs.
type Fairness struct {
	Flows  int          // default 4
	Window sim.Duration // default 8 ms
}

// Name returns "fairness".
func (Fairness) Name() string { return "fairness" }

func (p Fairness) run(seed int64, scheme scenario.Scheme) (*scenario.Result, error) {
	p.Flows = cmp.Or(p.Flows, 4)
	p.Window = cmp.Or(p.Window, 8*sim.Millisecond)
	sizes := []int64{9 << 20, 6 << 20, 4 << 20, 2 << 20}[:max(0, min(p.Flows, 4))]
	for len(sizes) < p.Flows {
		sizes = append(sizes, 2<<20)
	}
	if err := checkSpans(span{"Window", p.Window}); err != nil {
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
			Stagger:     sim.Millisecond,
			Sizes:       sizes,
		}},
		Probes: []scenario.Probe{&fairnessPanel{receiver: 0}},
		Until:  p.Window,
	})
}

// fairnessPeriod is the rate-sampling period.
const fairnessPeriod = 50 * sim.Microsecond

// fairnessPanel samples every launched flow's receive rate (Figure 5,
// and Figure 9 for HOMA's overcommitment levels) and writes one
// flow<i>_gbps series per flow, the flow count, and jain: the mean Jain
// fairness index over samples with ≥2 active flows.
type fairnessPanel struct {
	receiver int

	t       []sim.Time
	per     [][]float64 // per[i][k]: flow i's Gbps at sample k
	last    []int64
	jainSum float64
	jainN   int
}

func (p *fairnessPanel) Install(env *scenario.Env) error {
	flows := len(env.Launched)
	p.per = make([][]float64, flows)
	p.last = make([]int64, flows)
	scenario.SampleEvery(env.Eng(), fairnessPeriod, env.Horizon, func(now sim.Time) {
		p.t = append(p.t, now)
		var sum, sumSq float64
		active := 0
		for i := 0; i < flows; i++ {
			cur := env.Lab.ReceivedBytes(p.receiver, env.Launched[i].ID)
			g := stats.Gbps(cur-p.last[i], fairnessPeriod)
			p.last[i] = cur
			p.per[i] = append(p.per[i], g)
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
	var jain float64
	if p.jainN > 0 {
		jain = p.jainSum / float64(p.jainN)
	}
	res.SetScalar("jain", jain)
	res.SetScalar("flows", float64(len(p.per)))
	res.SetScalar("engine_steps", float64(env.Steps()))
	for i := range p.per {
		res.AddSeries(scenario.TimeSeries(fmt.Sprintf("flow%d_gbps", i+1), p.t, p.per[i]))
	}
	return nil
}
