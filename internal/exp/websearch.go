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
// synthetic incast workload (Fig. 7c–f). Fig. 7a/7b's slowdown-vs-load
// curves are a Suite of these cells, one per load (cmd/figures -fig 7).
type WebSearch struct {
	// ServersPerTor scales the fat-tree (default 8; 32 is the paper's).
	ServersPerTor int
	Load          float64 // ToR-uplink load, (0, 1]; default 0.6 (§4.1: 0.2–0.95)
	// IncastRate (requests/s) turns the incast overlay on; each request is
	// IncastSize bytes spread over 16 responders.
	IncastRate float64
	IncastSize int64
	// SampleBuffers collects the ToR buffer-occupancy CDF (Fig. 7g/h),
	// sampled every 20 µs.
	SampleBuffers bool
	Duration      sim.Duration // workload-generation horizon; default 15 ms
	Drain         sim.Duration // in-flight drain time after it; default 5 ms
}

// The incast overlay's responders per request and the buffer-sampling
// period.
const (
	webSearchFanIn  = 16
	webSearchPeriod = 20 * sim.Microsecond
)

// Name returns "websearch".
func (WebSearch) Name() string { return "websearch" }

func (p WebSearch) run(seed int64, scheme scenario.Scheme) (*scenario.Result, error) {
	p.Load = cmp.Or(p.Load, 0.6)
	p.ServersPerTor = cmp.Or(p.ServersPerTor, 8)
	p.Duration = cmp.Or(p.Duration, 15*sim.Millisecond)
	p.Drain = cmp.Or(p.Drain, 5*sim.Millisecond)
	if err := checkSpans(span{"Drain", p.Drain}); err != nil {
		return nil, err
	}
	traffic := []scenario.Traffic{
		scenario.PoissonLoad{Load: p.Load, Horizon: p.Duration},
	}
	if p.IncastRate != 0 {
		traffic = append(traffic, scenario.IncastRequests{
			RequestRate: p.IncastRate,
			RequestSize: p.IncastSize,
			FanIn:       webSearchFanIn,
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

	bufSamples stats.Dist
}

func (p *webSearchPanel) Install(env *scenario.Env) error {
	if !p.sampleBuffers {
		return nil
	}
	net := env.Lab.Net
	tors := env.Fabric.Racks
	// Run metadata fixes the sample count: one sweep of every ToR per
	// period over the generation horizon. Size the distribution once.
	p.bufSamples.Presize((int(p.duration/webSearchPeriod) + 2) * tors)
	scenario.SampleEvery(net.Eng, webSearchPeriod, sim.Time(p.duration), func(sim.Time) {
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
