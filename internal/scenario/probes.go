package scenario

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Probe is the measurement axis of a Scenario. Install runs after
// traffic and events are scheduled (attach samplers here); Finalize
// runs after the engine reaches the horizon and writes scalars and
// series into the shared Result envelope. Probes that must interpose
// before any flow launches additionally implement TrafficPreparer.
type Probe interface {
	Install(env *Env) error
	Finalize(env *Env, res *Result) error
}

// GoodputProbe samples the aggregate receive rate of every host to the
// horizon and emits it as the goodput_gbps time series plus its mean,
// goodput_gbps_avg.
type GoodputProbe struct {
	Period sim.Duration

	t    []sim.Time
	gbps []float64
}

func (p *GoodputProbe) Install(env *Env) error {
	if p.Period <= 0 {
		return fmt.Errorf("scenario: goodput probe needs a sampling Period")
	}
	var last int64
	SampleEvery(env.Eng(), p.Period, env.Horizon, func(now sim.Time) {
		var cur int64
		for h := range env.Fabric.Hosts {
			cur += env.Lab.ReceivedTotal(h)
		}
		p.t = append(p.t, now)
		p.gbps = append(p.gbps, stats.Gbps(cur-last, p.Period))
		last = cur
	})
	return nil
}

func (p *GoodputProbe) Finalize(env *Env, res *Result) error {
	var sum float64
	for _, g := range p.gbps {
		sum += g
	}
	if n := len(p.gbps); n > 0 {
		res.SetScalar("goodput_gbps_avg", sum/float64(n))
	}
	res.AddSeries(TimeSeries("goodput_gbps", p.t, p.gbps))
	return nil
}

// QueueProbe samples one switch egress queue to the horizon and emits its
// depth as the queue_kb time series plus its peak, queue_kb_peak.
type QueueProbe struct {
	Switch SwitchRef
	Port   int
	Period sim.Duration

	t  []sim.Time
	kb []float64
}

func (p *QueueProbe) Install(env *Env) error {
	if p.Period <= 0 {
		return fmt.Errorf("scenario: queue probe needs a sampling Period")
	}
	if env.Lab.Net.Rotor != nil {
		return fmt.Errorf("scenario: queue probe needs a topology with switch references (%T has none)", env.Scenario.Topology)
	}
	si, err := env.resolveSwitch(p.Switch)
	if err != nil {
		return err
	}
	if si < 0 || si >= len(env.Lab.Net.Switches) {
		return fmt.Errorf("scenario: queue probe switch %d out of range", si)
	}
	ports := env.Lab.Net.Switches[si].Ports()
	if p.Port < 0 || p.Port >= len(ports) {
		return fmt.Errorf("scenario: queue probe port %d out of range (switch %d has %d ports)", p.Port, si, len(ports))
	}
	port := ports[p.Port]
	SampleEvery(env.Eng(), p.Period, env.Horizon, func(now sim.Time) {
		p.t = append(p.t, now)
		p.kb = append(p.kb, float64(port.QueueBytes())/1024)
	})
	return nil
}

func (p *QueueProbe) Finalize(env *Env, res *Result) error {
	var peak float64
	for _, q := range p.kb {
		if q > peak {
			peak = q
		}
	}
	res.SetScalar("queue_kb_peak", peak)
	res.AddSeries(TimeSeries("queue_kb", p.t, p.kb))
	return nil
}

// FCTProbe bins the completed flows' slowdowns (FCT over ideal transfer
// time) into the paper's size bins and records completion counts and
// class percentiles — on any fabric: a rotor run's finite flows are
// recorded like any other's.
type FCTProbe struct{}

func (p FCTProbe) Install(env *Env) error { return nil }

func (p FCTProbe) Finalize(env *Env, res *Result) error {
	res.SetScalar("started", float64(env.Lab.Started()))
	res.SetScalar("completed", float64(len(env.Lab.Records)))
	res.SetScalar("short_p999", env.Lab.ClassP(99.9, 0, stats.ShortFlowMax))
	res.SetScalar("long_p999", env.Lab.ClassP(99.9, stats.LongFlowMin, 0))
	binned := env.Lab.Binned()
	s := Series{Name: "p999_slowdown_by_size", XLabel: "size_bytes"}
	for i, v := range binned.Row(99.9) {
		s.Points = append(s.Points, SeriesPoint{X: float64(stats.FlowSizeBins[i]), V: v})
	}
	res.AddSeries(s)
	return nil
}

// CwndProbe records the congestion-window and rate trajectory of one
// launched flow (by launch index) through the monitor interposer — the
// data behind cwnd-over-time plots.
type CwndProbe struct {
	// FlowIndex selects the flow in launch order.
	FlowIndex int
	// Every keeps one sample per period (0 records every ACK).
	Every sim.Duration

	mon *monitor.CC
}

// BeforeTraffic implements TrafficPreparer: it interposes on the
// selected flow's algorithm before any launch.
func (p *CwndProbe) BeforeTraffic(env *Env) error {
	if env.Scheme.IsHoma() {
		return fmt.Errorf("scenario: cwnd probe needs a per-flow algorithm; scheme %q is HOMA", env.Scheme.Name)
	}
	prev := env.wrapAlg
	env.wrapAlg = func(i int, alg cc.Algorithm) cc.Algorithm {
		if prev != nil {
			alg = prev(i, alg)
		}
		if i == p.FlowIndex && p.mon == nil {
			p.mon = monitor.Wrap(alg, p.Every)
			return p.mon
		}
		return alg
	}
	return nil
}

func (p *CwndProbe) Install(env *Env) error { return nil }

func (p *CwndProbe) Finalize(env *Env, res *Result) error {
	if p.mon == nil {
		return fmt.Errorf("scenario: cwnd probe flow index %d was never launched", p.FlowIndex)
	}
	cwnd := Series{Name: fmt.Sprintf("flow%d_cwnd_bytes", p.FlowIndex), XLabel: "time_us"}
	rate := Series{Name: fmt.Sprintf("flow%d_rate_gbps", p.FlowIndex), XLabel: "time_us"}
	for _, s := range p.mon.Samples {
		us := s.At.Seconds() * 1e6
		cwnd.Points = append(cwnd.Points, SeriesPoint{X: us, V: s.Cwnd})
		rate.Points = append(rate.Points, SeriesPoint{X: us, V: s.Rate.InGbps()})
	}
	res.AddSeries(cwnd)
	res.AddSeries(rate)
	return nil
}
