package exp

import (
	"cmp"
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// KeepLinkDown, as Failover.RestoreAfter, leaves the failed link down
// for the rest of the run.
const KeepLinkDown sim.Duration = -1

// Failover is the supplementary multipath-lab link failure on two
// leaves and two equal spines: the first leaf's link to spine 0 is cut
// mid-run. Flows hashed onto the dead path black-hole until the control
// plane reconverges onto the other spine (Reconverge later), then
// recover at the pace the scheme's loss detection allows; the link comes
// back at RestoreAfter. Goodput and the leaf's uplink queue are sampled
// every 20 µs.
type Failover struct {
	ServersPerTor int // default 8
	// Partitions is scenario.LeafSpineTopology.Partitions, a worker count
	// over the fabric's leaf shards.
	Partitions int
	// Flows is the cross-fabric flow count, capped at ServersPerTor. The
	// default 4 is sized so the surviving spines can still carry the whole
	// offered load: recovery measures rerouting + loss repair, not a
	// capacity cliff.
	Flows     int
	Routing   string       // "", "ecmp", "single", "wecmp"
	FailAfter sim.Duration // failure instant; default 1 ms
	// RestoreAfter is the repair instant (default FailAfter + 2 ms,
	// KeepLinkDown for never); it must come after the failure.
	RestoreAfter sim.Duration
	Reconverge   sim.Duration // control-plane delay; default 200 µs
	Window       sim.Duration // default 5 ms
}

// Name returns "failover".
func (Failover) Name() string { return "failover" }

func (p Failover) run(seed int64, scheme scenario.Scheme) (*scenario.Result, error) {
	p.ServersPerTor = cmp.Or(p.ServersPerTor, 8)
	p.Flows = min(cmp.Or(p.Flows, 4), p.ServersPerTor)
	p.Window = cmp.Or(p.Window, 5*sim.Millisecond)
	p.FailAfter = cmp.Or(p.FailAfter, sim.Millisecond)
	p.RestoreAfter = cmp.Or(p.RestoreAfter, p.FailAfter+2*sim.Millisecond)
	p.Reconverge = cmp.Or(p.Reconverge, 200*sim.Microsecond)
	if err := checkSpans(span{"Window", p.Window}); err != nil {
		return nil, err
	}
	events := []scenario.Event{
		scenario.LinkFail{At: p.FailAfter, A: scenario.Leaf(0), B: scenario.Spine(0)},
	}
	restoreAt := sim.Duration(0)
	if p.RestoreAfter != KeepLinkDown {
		if p.RestoreAfter >= 0 && p.RestoreAfter <= p.FailAfter {
			return nil, fmt.Errorf("failover RestoreAfter %v is not after the failure at %v",
				p.RestoreAfter, p.FailAfter)
		}
		restoreAt = p.RestoreAfter
		events = append(events, scenario.LinkRestore{
			At: p.RestoreAfter, A: scenario.Leaf(0), B: scenario.Spine(0),
		})
	}
	return scenario.Run(scenario.Scenario{
		Name:   "failover",
		Scheme: scheme,
		Seed:   seed,
		Topology: scenario.LeafSpineTopology{
			Leaves:         2,
			Spines:         2,
			ServersPerLeaf: p.ServersPerTor,
			Routing:        p.Routing,
			Partitions:     p.Partitions,
		},
		Traffic: []scenario.Traffic{scenario.RackPairs{
			FromRack: scenario.RackStart(0),
			ToRack:   scenario.RackStart(1),
			Count:    p.Flows,
		}},
		Events: scenario.Timeline{Events: events, Reconverge: p.Reconverge},
		Probes: []scenario.Probe{
			&failoverPanel{
				window:    p.Window,
				failAt:    p.FailAfter,
				restoreAt: restoreAt,
				flows:     p.Flows,
			},
			scenario.AccountingProbe{},
		},
		Until: p.Window,
	})
}

// failoverPeriod is the goodput and queue sampling period.
const failoverPeriod = 20 * sim.Microsecond

// failoverPanel samples aggregate goodput and the sending leaf's worst
// uplink queue (the series goodput_gbps and queue_kb), then summarizes
// how fast the scheme recovered once routing reconverged:
//
//   - pre_fail_gbps: mean goodput before the cut;
//   - recovery_us: cut → goodput back to ≥90% of pre-fail, and
//     recovered (1 or 0): whether it ever got there;
//   - post_fail_gbps: mean goodput after recovery, before the restore;
//   - queue_spike_kb: the max queue seen after the cut;
//   - lost_packets: packets black-holed on downed wires;
//   - route_rebuilds.
type failoverPanel struct {
	window    sim.Duration
	failAt    sim.Duration
	restoreAt sim.Duration // 0 means the link stays down
	flows     int

	t         []sim.Time
	gbps      []float64
	queueKB   []float64
	lastBytes int64
}

func (p *failoverPanel) Install(env *scenario.Env) error {
	net := env.Lab.Net
	ls := env.Lab.LSCfg
	perLeaf := ls.ServersPerLeaf
	rxBase := (ls.Leaves - 1) * perLeaf
	uplinks := net.Switches[ls.LeafSwitch(0)].Ports()[perLeaf : perLeaf+ls.Spines]
	scenario.SampleEvery(net.Eng, failoverPeriod, env.Horizon, func(now sim.Time) {
		var cur int64
		for i := 0; i < p.flows; i++ {
			cur += env.Lab.ReceivedTotal(rxBase + i)
		}
		var q int64
		for _, pt := range uplinks {
			if b := pt.QueueBytes(); b > q {
				q = b
			}
		}
		p.t = append(p.t, now)
		p.gbps = append(p.gbps, stats.Gbps(cur-p.lastBytes, failoverPeriod))
		p.queueKB = append(p.queueKB, float64(q)/1024)
		p.lastBytes = cur
	})
	return nil
}

func (p *failoverPanel) Finalize(env *scenario.Env, res *scenario.Result) error {
	net := env.Lab.Net
	var lost uint64
	for _, sw := range net.Switches {
		for _, pt := range sw.Ports() {
			lost += pt.Lost()
		}
	}

	// Pre-failure baseline: the second half of the pre-cut samples
	// (skipping slow-start).
	failT := sim.Time(p.failAt)
	restoreT := sim.Time(p.window)
	if p.restoreAt > p.failAt {
		restoreT = sim.Time(p.restoreAt)
	}
	var preSum, pre float64
	var preN int
	for i, t := range p.t {
		if t >= failT {
			break
		}
		if t >= failT/2 {
			preSum += p.gbps[i]
			preN++
		}
	}
	if preN > 0 {
		pre = preSum / float64(preN)
	}

	// Recovery: first post-cut sample back at ≥90% of the baseline.
	target := 0.9 * pre
	recoveredAt := sim.Time(p.window)
	var spike float64
	recovered := false
	for i, t := range p.t {
		if t <= failT {
			continue
		}
		spike = max(spike, p.queueKB[i])
		if !recovered && p.gbps[i] >= target {
			recovered = true
			recoveredAt = t
		}
	}

	// Post-recovery plateau: recovery point to the restore instant.
	var postSum, post float64
	var postN int
	for i, t := range p.t {
		if t > recoveredAt && t < restoreT {
			postSum += p.gbps[i]
			postN++
		}
	}
	if postN > 0 {
		post = postSum / float64(postN)
	}

	res.SetScalar("pre_fail_gbps", pre)
	res.SetScalar("post_fail_gbps", post)
	res.SetScalar("recovery_us", (recoveredAt-failT).Seconds()*1e6)
	res.SetScalar("recovered", b2f(recovered))
	res.SetScalar("queue_spike_kb", spike)
	res.SetScalar("lost_packets", float64(lost))
	res.SetScalar("route_rebuilds", float64(net.Router.Rebuilds()))
	res.SetScalar("engine_steps", float64(env.Steps()))
	res.AddSeries(scenario.TimeSeries("goodput_gbps", p.t, p.gbps))
	res.AddSeries(scenario.TimeSeries("queue_kb", p.t, p.queueKB))
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
