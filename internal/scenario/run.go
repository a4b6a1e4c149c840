package scenario

import (
	"fmt"
	"slices"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/rdcn"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Env is the built run a Scenario executes in: the fabric (a Lab, on
// every topology), the resolved fabric metadata, and the flows launched
// so far. Probes receive it on Install and Finalize.
type Env struct {
	Scenario *Scenario
	Scheme   Scheme
	Seed     int64
	Fabric   Fabric
	// Lab is the built network and its launch/collect harness; never nil
	// once the topology is built. A rotor fabric is the lab whose
	// Net.Rotor is set.
	Lab *Lab
	// Horizon is the absolute run end.
	Horizon sim.Time
	// Launched lists every launched flow in launch order.
	Launched []LaunchedFlow
	// Hybrid is the fluid/packet coupler, created lazily when the first
	// fluid-fidelity component launches (nil on all-packet runs).
	Hybrid *hybrid.Coupler

	// wrapAlg, when set by a probe's BeforeTraffic hook, interposes on
	// every per-flow algorithm (monitoring probes).
	wrapAlg func(i int, alg cc.Algorithm) cc.Algorithm
}

// Eng returns the control engine of the built fabric, the one probes and
// routing events schedule on (on a one-shard fabric, the only engine).
func (env *Env) Eng() *sim.Engine { return env.Lab.Net.Eng }

// Steps reports the total events executed by the run across every
// engine driving the fabric — the same total however it is sharded.
func (env *Env) Steps() uint64 { return env.Lab.Net.PSim.Steps() }

// TrafficPreparer is an optional Probe refinement: BeforeTraffic runs
// after the fabric is built but before any flow launches, the hook
// monitoring probes use to interpose on per-flow algorithms.
type TrafficPreparer interface {
	BeforeTraffic(env *Env) error
}

// Run executes a Scenario: build the topology, launch every traffic
// component in order, schedule the event timeline, install the probes,
// drive the engine to the horizon, and let each probe finalize into the
// Result envelope. The run owns an isolated engine, so distinct
// scenarios may Run concurrently.
//
// Run is the unsupervised composition of Prepare → DriveTo(horizon) →
// Finish → Release. Supervised callers (internal/guard) use the pieces
// directly so they can slice the drive at budget checkpoints; the
// composed behavior — and the Result bytes at a fixed seed — are
// identical either way.
func Run(sc Scenario) (*Result, error) {
	p, err := Prepare(sc)
	if err != nil {
		return nil, err
	}
	p.DriveTo(p.Horizon())
	res, err := p.Finish()
	// Deliberately not deferred: a panic during the drive or finalize
	// must NOT recycle the lab's buffers into the scratch pool (the
	// engine and packet free lists are in an unknown state mid-unwind).
	// The unwound lab falls to the garbage collector instead; typed
	// error returns are safe to recycle.
	p.Release()
	return res, err
}

// Prepared is a built, launched, probe-installed run that has not been
// driven yet: the seam run supervision needs between "set the world up"
// and "turn the crank". The caller drives the engine with DriveTo —
// once to the horizon for an unsupervised run, or in sim-time slices
// with budget checks between them — then composes the Result with
// Finish and recycles the lab with Release.
type Prepared struct {
	env      *Env
	released bool
}

// Prepare builds and arms a Scenario without executing any simulated
// event: topology, traffic launches, event timeline, probe
// installation. On error the partially built lab is recycled; on a
// panic (a model bug in a builder or probe) nothing is recycled and the
// lab falls to the garbage collector, keeping the scratch pool clean.
func Prepare(sc Scenario) (*Prepared, error) {
	if sc.Topology == nil {
		return nil, fmt.Errorf("scenario: no topology")
	}
	env := &Env{Scenario: &sc, Scheme: sc.Scheme, Seed: sc.Seed}
	if err := sc.Topology.build(env); err != nil {
		return nil, err
	}
	p := &Prepared{env: env}
	if err := p.setup(); err != nil {
		p.Release()
		return nil, err
	}
	return p, nil
}

// setup is the launch/schedule/install phase of Prepare, split out so
// Prepare can recycle the lab on any error path.
func (p *Prepared) setup() error {
	env := p.env
	sc := env.Scenario
	// A launch needs the HOMA transport or a per-flow algorithm builder.
	// The rotor brings its own builder (rotorAlg; RotorTopology.build has
	// already held the scheme to RotorSupports), so reTCP, which has no
	// Alg, passes there and nowhere else.
	if env.Lab.Net.Rotor == nil && !sc.Scheme.IsHoma() && sc.Scheme.Alg == nil {
		return fmt.Errorf("scenario: a switched topology does not support scheme %q (no per-flow algorithm)",
			sc.Scheme.Name)
	}
	// A topology that derives its own horizon (RotorTopology's Weeks)
	// keeps it; Until drives everything else.
	if env.Horizon == 0 && sc.Until > 0 {
		env.Horizon = sim.Time(sc.Until)
	}
	if env.Horizon <= 0 {
		return fmt.Errorf("scenario: no run horizon (set Until)")
	}

	for _, pr := range sc.Probes {
		if tp, ok := pr.(TrafficPreparer); ok {
			if err := tp.BeforeTraffic(env); err != nil {
				return err
			}
		}
	}
	for _, tr := range sc.Traffic {
		if err := env.launchComponent(tr, 0); err != nil {
			return err
		}
	}
	if env.Hybrid != nil {
		// The coupler's exchange ticks are their own causal root, so the
		// tick chain's canonical keys do not depend on how many flows or
		// probes the scenario also schedules.
		env.Eng().SetOrigin(originHybridKey)
		env.Hybrid.Start()
	}

	if sc.Events.Reconverge < 0 {
		return fmt.Errorf("scenario: negative reconvergence delay %v", sc.Events.Reconverge)
	}
	var links []route.LinkEvent
	for _, ev := range sc.Events.Events {
		if err := ev.apply(env, &links); err != nil {
			return err
		}
	}
	if len(links) > 0 {
		// Routing events are a causal root on the control engine; the
		// explicit origin makes their canonical keys identical whether
		// that engine is the only one (serial) or the psim control engine.
		env.Eng().SetOrigin(originRouteKey)
		env.Lab.Net.Router.Schedule(links, sc.Events.Reconverge)
	}

	for i, pr := range sc.Probes {
		// Each probe is its own causal root (samplers it installs descend
		// from it), keyed by probe index.
		env.Eng().SetOrigin(originProbeKey | uint64(i))
		if err := pr.Install(env); err != nil {
			return err
		}
	}
	return nil
}

// Horizon returns the absolute end time of the run.
func (p *Prepared) Horizon() sim.Time { return p.env.Horizon }

// Env exposes the built run environment (fabric, launched flows,
// engines) for probes-adjacent tooling; the supervised drive loop only
// needs the methods on Prepared itself.
func (p *Prepared) Env() *Env { return p.env }

// DriveTo advances the simulation to time t (clamped at the horizon).
// The fabric's psim.Fabric does the stepping: one RunUntil when its only
// shard is the control engine, otherwise the shard engines window by
// window — on this goroutine alone when it has one worker — and the
// control engine between slices; per-shard completion records merge
// back into the exact serial append order in Finish. Driving in slices
// is byte-identical to one call at the horizon: each slice ends with
// every engine's clock at the slice end, so the next resumes the
// identical event order. A tripped run (Trip non-nil) stops advancing.
func (p *Prepared) DriveTo(t sim.Time) {
	p.env.Lab.Net.PSim.Run(min(t, p.env.Horizon))
}

// ArmLimits installs in-loop engine limits (sim.Engine.SetLimits) on
// every engine driving the fabric: the control engine and each partition
// engine. stopSteps is a PER-ENGINE hard backstop — deterministic but
// shard-dependent — so supervised budget accounting compares aggregate
// Steps() at sim-time checkpoints instead and sets this cap far above
// the real budget (see internal/guard). The livelock run is counted per
// engine too: a shard counts its own consecutive events at one instant,
// not its neighbours'. A stuck model trips at the same instant however
// the fabric is sharded — and a large fat-tree is sharded by its pods at
// any Partitions — but
// the refused event and the SameRun that guard.LivelockError reports are
// the stuck shard's, and may differ from what one engine, with every
// shard's events of that instant in one run, would have reported.
func (p *Prepared) ArmLimits(stopSteps, maxSameInstant uint64) {
	p.env.Eng().SetLimits(stopSteps, maxSameInstant)
	for _, e := range p.env.Lab.Net.Engs {
		e.SetLimits(stopSteps, maxSameInstant)
	}
}

// Trip reports the in-loop limit stop that froze the run, or nil while
// it is healthy. On a sharded fabric the earliest refused event in
// canonical order is returned (deterministic even when several
// partitions trip in one barrier round).
func (p *Prepared) Trip() *sim.Trip { return p.env.Lab.Net.PSim.Tripped() }

// Steps reports the events executed so far across every engine driving
// the fabric. At a given sim-time checkpoint the total is
// partition-count-invariant: the partitioned fabric fires exactly the
// serial event set below any barrier time.
func (p *Prepared) Steps() uint64 { return p.env.Steps() }

// LivePackets reports the packets currently checked out of the fabric's
// pools — the live-object watermark of the guard pool budget. Summed
// across partition pools the count at a sim-time checkpoint is
// partition-count-invariant. (With packet pooling globally disabled —
// a test-only mode — pools count nothing and this reports zero.)
func (p *Prepared) LivePackets() uint64 {
	var n uint64
	for _, pl := range p.env.Lab.Net.Pools {
		n += pl.Live()
	}
	return n
}

// Finish merges the shards' completion records and finalizes every
// probe into the Result envelope. Call it once, after the final
// DriveTo.
func (p *Prepared) Finish() (*Result, error) {
	env := p.env
	sc := env.Scenario
	env.Lab.mergeRecords()
	res := &Result{Experiment: sc.Name, Scheme: sc.Scheme.Name, Seed: sc.Seed}
	for _, pr := range sc.Probes {
		if err := pr.Finalize(env, res); err != nil {
			return nil, err
		}
	}
	if _, ok := res.Scalars["engine_steps"]; !ok {
		res.SetScalar("engine_steps", float64(env.Steps()))
	}
	return res, nil
}

// Release recycles the lab's warmed buffers into the scratch pool
// (idempotent). Never call it after a panic on the run path — see Run.
func (p *Prepared) Release() {
	if p.released {
		return
	}
	p.released = true
	p.env.Lab.Release()
}

// launchComponent generates one traffic component's trace and launches
// it, applying the component's scheme override if present. shift moves
// every start time (InjectTraffic events). Components marked Fluid
// divert to the hybrid coupler instead of launching flows.
func (env *Env) launchComponent(wrapped Traffic, shift sim.Duration) error {
	tr, schemeName, hasOverride, fd := unwrapTraffic(wrapped)
	rotor := env.Lab.Net.Rotor
	var override Scheme
	if hasOverride {
		var err error
		if override, err = resolveOverride(schemeName, env.Scheme); err != nil {
			return err
		}
		if rotor != nil {
			return fmt.Errorf("scenario: traffic-class schemes are not supported on the rotor topology (the Fig. 8 comparison fixes the once-per-RTT PowerTCP and HPCC variants)")
		}
	}
	if fd == Fluid {
		law := override
		if !hasOverride {
			law = env.Scheme
		}
		return env.launchFluid(tr, law, shift)
	}
	flows, err := tr.generate(env.Fabric, env.Seed)
	if err != nil {
		return err
	}
	if shift > 0 {
		for i := range flows {
			flows[i].Start = flows[i].Start.Add(shift)
		}
	}
	// Every component's trace passes one sanity gate: sizes must be
	// positive (or the Unbounded sentinel) and starts non-negative —
	// malformed values the fuzzlab shrinker legitimately produces at
	// boundaries must error here, not corrupt transport state downstream.
	for _, f := range flows {
		if f.Size != Unbounded && f.Size <= 0 {
			return fmt.Errorf("scenario: flow %d→%d has non-positive size %d (use Unbounded for endless flows)",
				f.Src, f.Dst, f.Size)
		}
		if f.Start < 0 {
			return fmt.Errorf("scenario: flow %d→%d starts at negative time %v", f.Src, f.Dst, f.Start)
		}
	}
	// The component's laws come at once, one array of its scheme's law;
	// HOMA messages carry none, and the rotor builds each flow's below.
	var laws []cc.Algorithm
	switch {
	case rotor != nil:
	case hasOverride:
		laws = override.Alg(len(flows))
	case !env.Scheme.IsHoma():
		laws = env.Scheme.Alg(len(flows))
	}
	spt := env.Fabric.HostsPerRack
	env.Launched = slices.Grow(env.Launched, len(flows))
	for i, f := range flows {
		launch := f
		if launch.Size == Unbounded {
			launch.Size = env.Fabric.UnboundedSize
		}
		var alg cc.Algorithm
		switch {
		case rotor != nil:
			// Per-flow algorithms are built against the rotor (reTCP needs
			// its calendar); reTCP's fair share is the component's flow count.
			if f.Src/spt == f.Dst/spt {
				return fmt.Errorf("scenario: rotor flows must cross racks (src %d, dst %d)", f.Src, f.Dst)
			}
			alg = rotorAlg(env.Scheme, rotor, f.Src/spt, f.Dst/spt, len(flows))
		case laws != nil:
			alg = laws[i]
		}
		if alg != nil && env.wrapAlg != nil {
			alg = env.wrapAlg(len(env.Launched), alg)
		}
		id := env.Lab.LaunchAlg(launch, alg)
		env.Launched = append(env.Launched, LaunchedFlow{Flow: f, ID: id})
	}
	return nil
}

// RotorSupports restricts rotor runs to the schemes rotorAlg can
// actually build — anything else would silently fall back to HPCC. It
// is the single source of the Fig. 8 competitor list: RotorTopology
// refuses any other scheme before it builds anything, and with it the
// exp rdcn preset.
func RotorSupports(scheme Scheme) error {
	switch scheme.Kind {
	case KindPowerTCP, KindReTCP:
		return nil
	case KindCC:
		if scheme.Name == HPCC {
			return nil
		}
	}
	return fmt.Errorf("scenario: the rotor topology does not support scheme %q (supported: %s, %s, retcp-<µs>)",
		scheme.Name, PowerTCP, HPCC)
}

// rotorAlg builds the per-flow algorithm for a rotor-network run.
// PowerTCP and HPCC limit window updates to once per RTT for the fair
// comparison with reTCP (§5); reTCP is built against the network's
// rotor schedule and the flow count sharing the monitored circuit.
func rotorAlg(scheme Scheme, rotor *topo.Rotor, srcTor, dstTor, flowsSharing int) cc.Algorithm {
	switch scheme.Kind {
	case KindPowerTCP:
		return core.New(core.Config{Gamma: scheme.Gamma, UpdatePerRTT: true})
	case KindReTCP:
		return &rdcn.ReTCP{
			Sched:        rotor.Sched,
			SrcTor:       srcTor,
			DstTor:       dstTor,
			Prebuffer:    scheme.PrebufferFor,
			PacketRate:   rotor.Cfg.PacketRate,
			CircuitRate:  topo.RotorCircuitRate,
			FlowsSharing: flowsSharing,
		}
	default: // hpcc
		return cc.NewHPCC()
	}
}
