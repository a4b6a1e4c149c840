package exp

import (
	"cmp"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// WebSearch is one scheme×load cell of Figure 6 (slowdown by size) and
// Figure 7 (classes, incast overlay, buffers): the web-search flow-size
// distribution offered as an open-loop Poisson process at a target
// ToR-uplink load on the fat-tree, optionally overlaid with the
// synthetic incast workload (Fig. 7c–f).
type WebSearch struct {
	// ServersPerTor scales the fat-tree (default 8; 32 is the paper's).
	ServersPerTor int
	Load          float64 // ToR-uplink load, (0, 1]; default 0.6 (§4.1: 0.2–0.95)
	// IncastRate (requests/s) turns the incast overlay on; each request is
	// IncastSize bytes spread over IncastFanIn responders (default 16).
	IncastRate  float64
	IncastSize  int64
	IncastFanIn int
	// SampleBuffers collects the ToR buffer-occupancy CDF (Fig. 7g/h).
	SampleBuffers bool
	Duration      sim.Duration // workload-generation horizon; default 15 ms
	Drain         sim.Duration // in-flight drain time after it; default 5 ms
	SamplePeriod  sim.Duration // buffer-occupancy sampling; default 20 µs
}

// Name returns "websearch".
func (WebSearch) Name() string { return "websearch" }

func (p WebSearch) run(seed int64, scheme scenario.Scheme) (*scenario.Result, error) {
	p.Load = cmp.Or(p.Load, 0.6)
	p.ServersPerTor = cmp.Or(p.ServersPerTor, 8)
	p.Duration = cmp.Or(p.Duration, 15*sim.Millisecond)
	p.Drain = cmp.Or(p.Drain, 5*sim.Millisecond)
	p.IncastFanIn = cmp.Or(p.IncastFanIn, 16)
	p.SamplePeriod = cmp.Or(p.SamplePeriod, 20*sim.Microsecond)
	if err := checkSpans(span{"Drain", p.Drain}, span{"SamplePeriod", p.SamplePeriod}); err != nil {
		return nil, err
	}
	traffic := []scenario.Traffic{
		scenario.PoissonLoad{Load: p.Load, Horizon: p.Duration},
	}
	if p.IncastRate != 0 {
		traffic = append(traffic, scenario.IncastRequests{
			RequestRate: p.IncastRate,
			RequestSize: p.IncastSize,
			FanIn:       p.IncastFanIn,
			Horizon:     p.Duration,
			SeedOffset:  1,
		})
	}
	return scenario.Run(scenario.Scenario{
		Name:     "websearch",
		Scheme:   scheme,
		Seed:     seed,
		Topology: scenario.FatTreeTopology{ServersPerTor: p.ServersPerTor},
		Traffic:  traffic,
		Probes: []scenario.Probe{&webSearchPanel{
			load:          p.Load,
			sampleBuffers: p.SampleBuffers,
			duration:      p.Duration,
			period:        p.SamplePeriod,
		}},
		Until: p.Duration + p.Drain,
	})
}

// webSearchPanel collects the Figures 6–7 cell metrics from the
// completed-flow records:
//
//   - load, started and completed (flows);
//   - p999_bin_<size>: Figure 6's x-axis, the p99.9 slowdown per
//     flow-size bin;
//   - short_p999, medium_p999, long_p999: the class percentiles of
//     Fig. 7a/7b (short <10 KB, medium 100 KB–1 MB, long >1 MB);
//   - engine_steps: the discrete events the run executed.
//
// With sampleBuffers it also writes buffer_cdf, the distribution of ToR
// shared-buffer occupancy samples (Fig. 7g/h) in bytes, and its
// buffer_p99_bytes, even when every sample is 0.
type webSearchPanel struct {
	load          float64
	sampleBuffers bool
	duration      sim.Duration
	period        sim.Duration

	bufSamples stats.Dist
}

func (p *webSearchPanel) Install(env *scenario.Env) error {
	if !p.sampleBuffers {
		return nil
	}
	net := env.Lab.Net
	tors := env.Lab.FTCfg.Racks()
	// Run metadata fixes the sample count: one sweep of every ToR per
	// period over the generation horizon. Size the distribution once.
	p.bufSamples.Presize((int(p.duration/p.period) + 2) * tors)
	scenario.SampleEvery(net.Eng, p.period, sim.Time(p.duration), func(sim.Time) {
		for t := 0; t < tors; t++ {
			p.bufSamples.Add(float64(net.Switches[t].Shared().Used()))
		}
	})
	return nil
}

func (p *webSearchPanel) Finalize(env *scenario.Env, res *scenario.Result) error {
	lab := env.Lab
	res.SetScalar("load", p.load)
	res.SetScalar("started", float64(lab.Started()))
	res.SetScalar("completed", float64(len(lab.Records)))
	res.SetScalar("short_p999", lab.ClassP(99.9, 0, stats.ShortFlowMax))
	res.SetScalar("medium_p999", lab.ClassP(99.9, 100_000, stats.LongFlowMin))
	res.SetScalar("long_p999", lab.ClassP(99.9, stats.LongFlowMin, 0))
	for i, v := range lab.Binned().Row(99.9) {
		res.SetScalar("p999_bin_"+stats.SizeLabel(stats.FlowSizeBins[i]), v)
	}
	res.SetScalar("engine_steps", float64(env.Steps()))
	if p.sampleBuffers {
		res.SetScalar("buffer_p99_bytes", p.bufSamples.Percentile(99))
		cdf := scenario.Series{Name: "buffer_cdf", XLabel: "occupancy_bytes"}
		for _, pt := range p.bufSamples.CDF(50) {
			cdf.Points = append(cdf.Points, scenario.SeriesPoint{X: pt.V, V: pt.F})
		}
		res.AddSeries(cdf)
	}
	return nil
}

// LoadSweep runs the WebSearch cell across Loads (Fig. 7a/7b: slowdown vs
// load); every other field means what it means on WebSearch. Its Result
// carries short_p999 and long_p999 as load-indexed series, the top
// load's values as scalars, and engine_steps summed over the cells.
type LoadSweep struct {
	Loads         []float64 // default 0.2, 0.5, 0.8
	ServersPerTor int
	IncastRate    float64
	IncastSize    int64
	IncastFanIn   int
	SampleBuffers bool
	Duration      sim.Duration
	Drain         sim.Duration
	SamplePeriod  sim.Duration
}

// Name returns "load-sweep".
func (LoadSweep) Name() string { return "load-sweep" }

func (p LoadSweep) run(seed int64, scheme scenario.Scheme) (*scenario.Result, error) {
	if len(p.Loads) == 0 {
		p.Loads = []float64{0.2, 0.5, 0.8}
	}
	short := scenario.Series{Name: "short_p999", XLabel: "load"}
	long := scenario.Series{Name: "long_p999", XLabel: "load"}
	var steps float64
	var top *scenario.Result
	for _, load := range p.Loads {
		cell, err := WebSearch{
			ServersPerTor: p.ServersPerTor, Load: load,
			IncastRate: p.IncastRate, IncastSize: p.IncastSize, IncastFanIn: p.IncastFanIn,
			SampleBuffers: p.SampleBuffers,
			Duration:      p.Duration, Drain: p.Drain, SamplePeriod: p.SamplePeriod,
		}.run(seed, scheme)
		if err != nil {
			return nil, err
		}
		short.Points = append(short.Points, scenario.SeriesPoint{X: load, V: cell.Scalar("short_p999")})
		long.Points = append(long.Points, scenario.SeriesPoint{X: load, V: cell.Scalar("long_p999")})
		steps += cell.Scalar("engine_steps")
		top = cell
	}
	res := &scenario.Result{}
	res.AddSeries(short)
	res.AddSeries(long)
	if top != nil {
		res.SetScalar("top_load", top.Scalar("load"))
		res.SetScalar("short_p999_top_load", top.Scalar("short_p999"))
		res.SetScalar("long_p999_top_load", top.Scalar("long_p999"))
	}
	res.SetScalar("engine_steps", steps)
	return res, nil
}
