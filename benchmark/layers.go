package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/packet"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// fabricCounts are the public counters of driven fabrics, read layer by
// layer before each lab is released. They add up over several fabrics:
// serve-mix's misses build hundreds of small ones.
type fabricCounts struct {
	fabrics              int
	hosts                int // of the largest fabric seen
	events               uint64
	switchTx, nicTx      uint64 // packets transmitted by switch ports / host NICs
	drops, lost          uint64
	marked, switchDrops  uint64
	rebuilds, tableSlots uint64
	completed, retrans   uint64
	poolGets, poolNews   uint64
}

func (c *fabricCounts) add(p *scenario.Prepared) {
	env := p.Env()
	net := env.Lab.Net
	c.fabrics++
	c.events += p.Steps()
	if len(net.Hosts) > c.hosts {
		c.hosts = len(net.Hosts)
	}
	for _, h := range net.Hosts {
		nic := h.NIC()
		c.nicTx += nic.TxPackets()
		c.drops += nic.Drops()
		c.lost += nic.Lost()
	}
	for _, s := range net.Switches {
		c.marked += s.Marked()
		c.switchDrops += s.Dropped()
		for _, pt := range s.Ports() {
			c.switchTx += pt.TxPackets()
			c.drops += pt.Drops()
			c.lost += pt.Lost()
		}
		for hi := range net.Hosts {
			c.tableSlots += uint64(len(s.Route(net.HostID(hi))))
		}
	}
	c.rebuilds += uint64(net.Router.Rebuilds())
	c.completed += uint64(len(env.Lab.Records))
	for _, lf := range env.Launched {
		if h, ok := net.Hosts[lf.Src].(*transport.Host); ok {
			if f := h.Flow(lf.ID); f != nil {
				c.retrans += f.Retransmits
			}
		}
	}
	pools := net.Pools
	if pools == nil {
		pools = []*packet.Pool{net.Pool}
	}
	for _, pl := range pools {
		gets, news, _ := pl.Stats()
		c.poolGets += gets
		c.poolNews += news
	}
}

// rebuildSeconds times Router.Rebuild on a built fabric three times and
// returns the median.
func rebuildSeconds(p *scenario.Prepared) float64 {
	r := p.Env().Lab.Net.Router
	s := make([]float64, 3)
	for i := range s {
		start := time.Now()
		r.Rebuild()
		s[i] = time.Since(start).Seconds()
	}
	return median(s)
}

// topoBuildSeconds times topo.FatTree alone — wiring plus the initial
// route build, no scenario layer above it — for the given shape.
func topoBuildSeconds(cfg topo.FatTreeConfig) (float64, error) {
	cfg.Opts = topo.Options{
		Hosts:         topo.TransportHosts(transport.Config{BaseRTT: 30 * sim.Microsecond}),
		BufferPerGbps: topo.TofinoBufferPerGbps,
		INT:           true,
	}
	start := time.Now()
	net := topo.FatTree(cfg)
	d := time.Since(start).Seconds()
	if want := cfg.Racks() * cfg.ServersPerTor; len(net.Hosts) != want {
		return 0, fmt.Errorf("topo.FatTree built %d hosts, want %d", len(net.Hosts), want)
	}
	return d, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerReport turns what a traced run gathered below the scenario layer
// into the per-workload layer metrics: counters, the phase split, the
// model guards and the ladder test. The ladder's rungs and
// route.rebuild_s are already in o.
func layerReport(o *outcome, c fabricCounts, t passTimes, guard map[string]float64) {
	o.set("sim.events", float64(c.events), "count")
	o.set("link.tx_packets", float64(c.switchTx+c.nicTx), "count")
	o.set("link.drops", float64(c.drops), "count")
	o.set("link.lost", float64(c.lost), "count")
	o.set("swtch.ecn_marked", float64(c.marked), "count")
	o.set("swtch.dropped", float64(c.switchDrops), "count")
	o.set("route.rebuilds", float64(c.rebuilds), "count")
	o.set("route.table_entries", float64(c.tableSlots), "count")
	o.set("transport.flows_completed", float64(c.completed), "count")
	o.set("transport.retransmits", float64(c.retrans), "count")
	o.set("packet.pool_new_ratio", ratio(float64(c.poolNews), float64(c.poolGets)), "ratio")
	o.set("scenario.prepare_s", t.prepare, "s")
	o.set("scenario.drive_s", t.drive, "s")
	o.set("scenario.finish_s", t.finish, "s")
	o.set("scenario.encode_s", t.encode, "s")
	for _, n := range guardNames {
		unit := "count"
		if n == "short_p999" || n == "long_p999" {
			unit = "x"
		}
		o.set("model."+n, guard[n], unit)
	}

	m := func(n string) float64 { return o.Metrics[n].Value }
	// Each fabric's Prepare holds one route build.
	o.set("route.prepare_share_pct", 100*ratio(m("route.rebuild_s")*float64(c.fabrics), t.prepare), "%")

	// The ladder test: per-layer cost × operation count, summed, against
	// the measured drive. Every packet a port transmits is two events
	// (txDone, delivery) whose cost the hop rungs include; a switch
	// port's packet costs a forward, a NIC's a bare hop. Half the NIC
	// packets are data, and each data packet is one transport round and
	// one OnAck on top of its two hops. Events that are none of these —
	// pacing and retransmission timers, flow starts, probes, route
	// changes — are charged a bare schedule-and-fire, which is why a
	// workload that rebuilds tables during the drive leaves a residual.
	forward := m("swtch.forward_ns.t64")
	if c.hosts > 1024 {
		forward = m("swtch.forward_ns.t10k")
	}
	rounds := float64(c.nicTx) / 2
	other := math.Max(0, float64(c.events)-2*float64(c.switchTx+c.nicTx))
	est := float64(c.switchTx)*forward +
		float64(c.nicTx)*m("link.hop_ns") +
		rounds*math.Max(0, m("transport.data_ack_round_ns")-2*m("link.hop_ns")) +
		rounds*m("core.onack_ns.powertcp") +
		other*m("sim.schedule_fire_ns")
	o.set("ladder.residual_pct", 100*ratio(math.Abs(est/1e9-t.drive), t.drive), "%")
}

// gcReport records the collector's part in one traced repetition.
func gcReport(o *outcome, m0, m1 memMark) {
	o.set("runtime.gc_cycles", float64(m1.numGC-m0.numGC), "count")
	o.set("runtime.gc_pause_ms", float64(m1.pauseNs-m0.pauseNs)/1e6, "ms")
}

// traceSim is the traced run of a simulator workload: a cold pass, one
// untraced repetition (the base of trace.overhead_pct and of the
// partition speed-up), one traced repetition whose spans give the phase
// split and whose fabric gives the counters, one pass on two partitions,
// the fabric-only build, and the ladder.
func traceSim(gen func(seed int64, smoke bool) *simInput, c runCfg) (*outcome, error) {
	in := gen(c.seed, c.smoke)
	o := &outcome{Workload: in.name, Seed: c.seed, InputDigest: in.digest, K: 1}
	clock := newHostClock(c.smoke)
	defer func() { clock.tick(); o.Calib = clock.samples }()
	o.spans = &tracer{}
	root := o.spans.begin("workload:"+in.name, -1)
	defer o.spans.end(root)

	sp := o.spans.begin("gen", root)
	o.set("workload.gen_s", rung(1, func() { gen(c.seed, c.smoke) })/1e9, "s")
	o.spans.end(sp)

	cold, err := runPass(in.build, in.hasFCT, passOpts{live: true})
	if err != nil {
		return nil, err
	}
	plain, err := runRep(in, passOpts{live: true})
	if err != nil {
		return nil, err
	}
	var counts fabricCounts
	var rebuild float64
	if err := collectBetweenPasses(); err != nil {
		return nil, err
	}
	m0 := markMem() // after the forced collection, so gc_cycles counts the pass's own
	traced, err := runPass(in.build, in.hasFCT, passOpts{
		live: true, tr: o.spans, parent: root,
		inspect: func(p *scenario.Prepared) {
			counts.add(p)
			rebuild = rebuildSeconds(p)
		},
	})
	if err != nil {
		return nil, err
	}
	gcReport(o, m0, markMem())
	split, err := runRep(in, passOpts{parts: 2, live: true})
	if err != nil {
		return nil, err
	}
	o.Attempted = 4
	o.Ops = cold.ops
	o.ResultDigest = cold.digest
	o.Guards = guards(cold.result)
	for _, p := range cold.problems {
		o.fail("cold pass: %s", p)
	}
	// The partitioned pass is held to the same bytes: output is
	// byte-identical at any partition count.
	for i, p := range []simPass{plain, traced, split} {
		checkRep(o, i+1, p, cold)
	}

	build, err := topoBuildSeconds(in.fabricConfig())
	if err != nil {
		return nil, err
	}
	o.set("route.rebuild_s", rebuild, "s")
	o.set("topo.build_s", build, "s")
	o.set("psim.parts2_drive_s", split.times.drive, "s")
	o.set("psim.parts2_speedup_x", plain.times.drive/split.times.drive, "x")
	o.set("trace.overhead_pct", 100*(traced.times.total()/plain.times.total()-1), "%")
	if err := runLadder(o, c.smoke, root); err != nil {
		return nil, err
	}
	// The serving metrics come from a small replay here; serve-mix reads
	// them off its own full one.
	mix := miniMix
	if c.smoke {
		mix = smokeMix
	}
	mini, err := genServeMix(c.seed, mix)
	if err != nil {
		return nil, err
	}
	p, err := runServePass(mini, nil, nil, -1)
	if err != nil {
		return nil, err
	}
	o.note(p.replay, mini.requests(), "serving rung")
	serveReport(o, p)
	layerReport(o, counts, traced.times, o.Guards)
	return o, nil
}

// directResult is what a set of direct runs adds up to.
type directResult struct {
	times   passTimes
	counts  fabricCounts
	guard   map[string]float64
	rebuild float64 // route.rebuild_s on the websearch preset's fabric
}

// directRuns executes the schedule's misses that pick selects, once
// each, outside the server: DecodeSpec → Spec.Build → the same pass the
// simulator workloads run. It is how serve-mix's traced run sees the
// layers below the server — the phase split and the fabric counters of
// the simulations its misses cause — since the server exposes neither.
func directRuns(in *serveInput, parts int, pick func(*scenario.Spec, request) bool, tr *tracer, parent int) (directResult, error) {
	out := directResult{guard: map[string]float64{}}
	for _, lane := range in.lane {
		for _, r := range lane {
			if r.hit {
				continue
			}
			sp, err := scenario.DecodeSpec(r.body)
			if err != nil {
				return out, err
			}
			if !pick(sp, r) {
				continue
			}
			p, err := runPass(sp.Build, false, passOpts{
				parts: parts, tr: tr, parent: parent,
				inspect: func(p *scenario.Prepared) {
					out.counts.add(p)
					if out.rebuild == 0 && sp.Name == "websearch" {
						out.rebuild = rebuildSeconds(p)
					}
				},
			})
			if err != nil {
				return out, err
			}
			if len(p.problems) > 0 {
				return out, fmt.Errorf("direct run of request %d: %v", r.index, p.problems)
			}
			out.times.add(p.times)
			for _, n := range guardNames {
				// Tail percentiles do not add up; the largest stands for
				// the set.
				if v := p.result.Scalar(n); n == "short_p999" || n == "long_p999" {
					out.guard[n] = math.Max(out.guard[n], v)
				} else {
					out.guard[n] += v
				}
			}
		}
	}
	return out, nil
}

// traceServe is the traced run of serve-mix: a cold pass, one untraced
// repetition (whose latencies are the serving metrics), one traced
// repetition with a span per request, the direct runs of the misses, and
// the ladder.
func traceServe(c runCfg) (*outcome, error) {
	in, err := genServeMix(c.seed, c.mix())
	if err != nil {
		return nil, err
	}
	o := &outcome{Workload: "serve-mix", Seed: c.seed, InputDigest: in.digest, K: 1, Ops: uint64(in.requests())}
	clock := newHostClock(c.smoke)
	defer func() { clock.tick(); o.Calib = clock.samples }()
	o.spans = &tracer{}
	root := o.spans.begin("workload:serve-mix", -1)
	defer o.spans.end(root)

	sp := o.spans.begin("gen", root)
	o.set("workload.gen_s", rung(1, func() { genServeMix(c.seed, c.mix()) })/1e9, "s")
	o.spans.end(sp)

	cold, err := runServePass(in, nil, nil, -1)
	if err != nil {
		return nil, err
	}
	o.note(cold.replay, in.requests(), "cold pass")
	o.ResultDigest = cold.replay.digest
	plain, err := runServePass(in, nil, nil, -1)
	if err != nil {
		return nil, err
	}
	o.note(plain.replay, in.requests(), "untraced repetition")
	m0 := markMem()
	traced, err := runServePass(in, nil, o.spans, root)
	if err != nil {
		return nil, err
	}
	gcReport(o, m0, markMem())
	o.note(traced.replay, in.requests(), "traced repetition")
	for _, p := range []servePass{plain, traced} {
		if p.replay.digest != cold.replay.digest {
			o.fail("reply sha256 differs from the cold pass's")
		}
	}
	serveReport(o, plain)
	o.set("trace.overhead_pct", 100*(traced.run/plain.run-1), "%")

	all := func(*scenario.Spec, request) bool { return true }
	direct, err := directRuns(in, 1, all, o.spans, root)
	if err != nil {
		return nil, err
	}
	// The partition point: the working-set specs that can be sharded, on
	// one engine and on two.
	shardable := func(sp *scenario.Spec, r request) bool {
		return r.key >= 0 && sp.Partitionable() && !sp.HasFluid()
	}
	serial, err := directRuns(in, 1, shardable, nil, -1)
	if err != nil {
		return nil, err
	}
	split, err := directRuns(in, 2, shardable, nil, -1)
	if err != nil {
		return nil, err
	}
	build, err := topoBuildSeconds(topo.FatTreeConfig{ServersPerTor: smallFabric.ServersPerTor}.WithDefaults())
	if err != nil {
		return nil, err
	}
	o.Guards = direct.guard
	o.set("route.rebuild_s", direct.rebuild, "s")
	o.set("topo.build_s", build, "s")
	o.set("psim.parts2_drive_s", split.times.drive, "s")
	o.set("psim.parts2_speedup_x", ratio(serial.times.drive, split.times.drive), "x")
	if err := runLadder(o, c.smoke, root); err != nil {
		return nil, err
	}
	layerReport(o, direct.counts, direct.times, direct.guard)
	return o, nil
}

// serveReport turns one replay into the serving metrics.
func serveReport(o *outcome, p servePass) {
	all, hit, miss := latencies(p.replay.samples)
	o.set("serve.req_p50_us", percentile(all, 50), "us")
	o.set("serve.req_p99_ms", percentile(all, 99)/1e3, "ms")
	o.set("serve.hit_p50_us", percentile(hit, 50), "us")
	o.set("serve.hit_p99_us", percentile(hit, 99), "us")
	o.set("serve.miss_p50_ms", percentile(miss, 50)/1e3, "ms")
	o.set("serve.miss_p99_ms", percentile(miss, 99)/1e3, "ms")
	o.set("serve.shed", float64(p.stats.Shed), "count")
	o.set("serve.runs", float64(p.stats.Runs), "count")
	o.set("serve.cache_hits", float64(p.stats.CacheHits), "count")
	o.set("serve.cache_entries", float64(p.stats.Entries), "count")
}
