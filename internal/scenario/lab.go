package scenario

import (
	"repro/internal/cc"
	"repro/internal/homa"
	"repro/internal/packet"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/workload"
)

// FlowRecord is one completed transfer: which flow it was (ID, and end
// hosts' node IDs, which are their host indices), its size, the instant
// its FCT counts from, the FCT (transport.Completion), and its slowdown.
type FlowRecord struct {
	transport.Completion
	Slowdown float64
}

// Causal-origin key namespaces. Setup code — flow launches, probe
// installation, routing-event registration — schedules events outside
// any engine callback, so each scheduling burst sets an explicit origin
// (sim.Engine.SetOrigin) derived from a stable entity identity. The
// namespaces keep launches, probes and route schedules from colliding;
// within a namespace the entity counter (launch number, probe index)
// disambiguates. Identical origins are set on the serial engine and on
// the partitioned engines, which is what makes setup-event canonical
// keys — and therefore the whole firing order — mode-invariant.
const (
	originFlowKey   = uint64(1) << 56
	originProbeKey  = uint64(2) << 56
	originRouteKey  = uint64(3) << 56
	originHybridKey = uint64(4) << 56
)

// keyedRecord is a FlowRecord tagged with the canonical key of the
// event that produced it, for the cross-shard merge.
type keyedRecord struct {
	key sim.Key
	rec FlowRecord
}

// Lab is a built network plus the scheme-appropriate launch/collect
// plumbing shared by the experiment runners.
type Lab struct {
	Scheme  Scheme
	Net     *topo.Network
	LSCfg   topo.LeafSpineConfig
	Records []FlowRecord

	// fabric names the fabric in errors, and tiers are the switch runs
	// a SwitchRef can name on it by role (Env.resolveSwitch): none on a
	// star or a rotor.
	fabric string
	tiers  []switchTier

	started int
	scratch *runScratch
	// partRecs holds per-shard keyed record buffers on a fabric of several
	// shards (nil on one): each shard's completion callbacks append only
	// to their own buffer, race-free, and mergeRecords rebuilds the exact
	// serial append order from the canonical keys.
	partRecs [][]keyedRecord
}

// newLab builds a lab of any shape: it claims a recycled scratch, hands
// build the switch/buffer options every lab shares — with the scratch's
// warmed engines, mailboxes and fabric arrays (if any) and
// scheme-appropriate hosts configured by host, whose BaseRTT is the
// fabric's maximum RTT (the paper's τ) — and wires the collectors onto
// the network build returns.
// The scheme's DTAlpha (composed via the Alpha scheme option) overrides
// the Dynamic Thresholds factor; 0 keeps the default α=1. build adds
// what is the fabric's own (a partition plan, the rotor's INT and buffer
// rules). The fabric has hosts hosts, carved from the scratch's array of
// its transport's hosts.
func newLab(scheme Scheme, seed int64, routing route.Strategy, host transport.Config, hosts int, build func(topo.Options) *topo.Network) *Lab {
	sc := getScratch()
	l := &Lab{Scheme: scheme, scratch: sc}
	var node topo.HostFactory
	var flows packet.Table
	var homaHosts []homa.Host
	if scheme.IsHoma() {
		cfg := homa.Config{BaseRTT: host.BaseRTT, Overcommit: scheme.Overcommit}
		all := carveHosts(&sc.homaHosts, hosts)
		node = func(eng *sim.Engine, id packet.NodeID) topo.Node {
			all[id].Init(eng, id, cfg)
			return &all[id]
		}
		flows, homaHosts = sc.homaFlows, all
	} else {
		all := carveHosts(&sc.hosts, hosts)
		node = func(eng *sim.Engine, id packet.NodeID) topo.Node {
			all[id].Init(eng, id, host)
			return &all[id]
		}
		flows = sc.flows
	}
	l.Net = build(topo.Options{
		BufferPerGbps: topo.TofinoBufferPerGbps,
		Alpha:         scheme.DTAlpha,
		INT:           scheme.INT,
		ECN:           scheme.ECN,
		Queues:        scheme.queueFactory(),
		Seed:          seed,
		Routing:       routing,
		Engine:        l.scratch.eng,
		ShardEngines:  l.scratch.engs,
		Mailboxes:     l.scratch.boxes,
		Memory:        &l.scratch.fabric,
		Flows:         flows,
		Hosts:         node,
	})
	if homaHosts != nil {
		homa.LiveRoom(homaHosts)
	}
	l.wireCollectors()
	return l
}

// carveHosts returns n zeroed hosts from the front of the scratch's
// array *kept, which a larger fabric replaces with one of its exact size.
func carveHosts[H any](kept *[]H, n int) []H {
	if len(*kept) < n {
		*kept = make([]H, n)
	}
	return (*kept)[:n:n]
}

// wireCollectors attaches completion callbacks on every host and moves
// the scratch's packet slabs and record buffer into the freshly built
// network.
func (l *Lab) wireCollectors() {
	// Pool i takes what pool i of the last run of this shape held. Lists
	// beyond the lab's pools stay in the scratch for the next lab that has
	// a pool for them.
	sc, pools := l.scratch, l.Net.Pools
	for i := range min(len(pools), len(sc.slabs)) {
		pools[i].Adopt(sc.slabs[i])
		sc.slabs[i] = nil
	}
	l.Records, sc.records = sc.records, nil
	parts := l.Net.Part.Parts
	if parts > 1 {
		l.partRecs = make([][]keyedRecord, parts)
	}
	// One callback per shard, shared by the shard's hosts.
	done := make([]func(transport.Completion), parts)
	for p := range parts {
		done[p] = func(c transport.Completion) { l.record(p, c) }
	}
	for i, n := range l.Net.Hosts {
		p := l.Net.Part.HostPart[i]
		switch h := n.(type) {
		case *transport.Host:
			h.OnFlowDone = done[p]
		case *homa.Host:
			h.OnMessageDone = done[p]
		}
	}
}

// record files a completion on shard p. One shard fires its events in
// the serial order, so there the record goes straight to Records; on
// several it goes to the shard's own buffer, keyed by the canonical
// position of the completing event.
func (l *Lab) record(p int, c transport.Completion) {
	rec := FlowRecord{c, stats.Slowdown(c.FCT, c.Size, l.Net.HostRate, l.Net.BaseRTT)}
	if l.partRecs == nil {
		l.Records = append(l.Records, rec)
		return
	}
	l.partRecs[p] = append(l.partRecs[p], keyedRecord{key: l.Net.Engs[p].ExecKey(), rec: rec})
}

// mergeRecords appends the shards' buffers to Records after the run.
// Each buffer is already ascending in canonical key (a shard fires its
// events in the serial sub-order), so a k-way merge by key reproduces
// the exact serial append order: the global firing order is the
// canonical order, and every record's key is its producing event's
// position in it. A one-shard fabric has no buffer to merge.
func (l *Lab) mergeRecords() {
	idx := make([]int, len(l.partRecs))
	for {
		best := -1
		for p := range l.partRecs {
			if idx[p] >= len(l.partRecs[p]) {
				continue
			}
			if best < 0 || l.partRecs[p][idx[p]].key.Less(l.partRecs[best][idx[best]].key) {
				best = p
			}
		}
		if best < 0 {
			break
		}
		l.Records = append(l.Records, l.partRecs[best][idx[best]].rec)
		idx[best]++
	}
	for p := range l.partRecs {
		l.partRecs[p] = l.partRecs[p][:0]
	}
}

// UnboundedSize returns the "runs past any window" flow size for the
// lab's scheme: the transport supports a true Unbounded marker, HOMA
// messages need a finite (but effectively infinite) length.
func (l *Lab) UnboundedSize() int64 {
	if l.Scheme.IsHoma() {
		return 1 << 33
	}
	return transport.Unbounded
}

// LaunchAlg starts one workload flow (transport flow or HOMA message)
// and returns the flow ID it was assigned. alg is the flow's algorithm,
// built for it by its traffic component's scheme (or against the rotor's
// calendar); HOMA messages carry no per-flow algorithm and ignore it.
func (l *Lab) LaunchAlg(f workload.Flow, alg cc.Algorithm) packet.FlowID {
	l.started++
	id := l.Net.NextFlowID()
	dst := l.Net.HostID(f.Dst)
	// Each launch is a causal root: its origin key is the launch
	// counter, identical on the serial engine and on the source host's
	// partition engine, so the launch event's canonical key — and every
	// packet event descending from it — is the same at any partition
	// count.
	l.Net.HostEngine(f.Src).SetOrigin(originFlowKey | uint64(l.started))
	switch h := l.Net.Hosts[f.Src].(type) {
	case *transport.Host:
		h.StartFlow(id, dst, f.Size, alg, f.Start)
	case *homa.Host:
		h.Send(id, dst, f.Size, f.Start)
	}
	return id
}

// Started returns the number of launched flows.
func (l *Lab) Started() int { return l.started }

// receiver is what the lab reads of a host, whichever transport it runs.
type receiver interface {
	ReceivedTotal() int64
	DeliveredPayload() int64
	ReceivedBytes(packet.FlowID) int64
}

// ReceivedTotal returns the payload bytes received by host i.
func (l *Lab) ReceivedTotal(i int) int64 { return l.Net.Hosts[i].(receiver).ReceivedTotal() }

// DeliveredPayload returns the raw payload bytes delivered to host i,
// retransmitted duplicates included — the endpoint-side word of the
// byte-conservation identity (ReceivedTotal deduplicates under HOMA).
func (l *Lab) DeliveredPayload(i int) int64 { return l.Net.Hosts[i].(receiver).DeliveredPayload() }

// ReceivedBytes returns the payload bytes host i received on one flow.
func (l *Lab) ReceivedBytes(i int, id packet.FlowID) int64 {
	return l.Net.Hosts[i].(receiver).ReceivedBytes(id)
}

// SampleEvery invokes fn(now) at the given period until the horizon.
func SampleEvery(eng *sim.Engine, period sim.Duration, until sim.Time, fn func(now sim.Time)) {
	var tick func()
	tick = func() {
		now := eng.Now()
		if now > until {
			return
		}
		fn(now)
		eng.After(period, tick)
	}
	eng.After(0, tick)
}

// Binned summarizes the lab's completed flows into the paper's size bins.
func (l *Lab) Binned() *stats.BinnedSlowdowns {
	b := stats.NewBinnedSlowdowns()
	for _, r := range l.Records {
		b.Add(r.Size, r.Slowdown)
	}
	return b
}

// ClassP returns the p-th percentile slowdown over flows in
// (sizes limited by lo < size ≤ hi; hi ≤ 0 means unbounded).
func (l *Lab) ClassP(p float64, lo, hi int64) float64 {
	var d stats.Dist
	for _, r := range l.Records {
		if r.Size > lo && (hi <= 0 || r.Size <= hi) {
			d.Add(r.Slowdown)
		}
	}
	return d.Percentile(p)
}
