package powertcp

import (
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fluid"
	"repro/internal/monitor"
	"repro/internal/route"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/units"
)

// Time and rate units.
type (
	// Time is an absolute simulation timestamp (integer picoseconds).
	Time = sim.Time
	// Duration is a simulated time span (integer picoseconds).
	Duration = sim.Duration
	// BitRate is a bandwidth in bits per second.
	BitRate = units.BitRate
)

// Convenient constants.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Mbps        = units.Mbps
	Gbps        = units.Gbps
)

// Congestion control.
type (
	// Algorithm is the per-flow congestion-control interface.
	Algorithm = cc.Algorithm
	// Config parameterizes PowerTCP and θ-PowerTCP: γ and per-RTT
	// updates. β = HostBw·τ/10, the window bounds and every baseline's
	// parameters are the papers' constants (EXPERIMENTS.md).
	Config = core.Config
	// HostConfig parameterizes the reliable transport on each host: the
	// base RTT τ and the fast-retransmit threshold. Segments carry 1000
	// payload bytes, and the RTO is 40·τ, at least 1 ms.
	HostConfig = transport.Config
)

// New returns a PowerTCP (Algorithm 1, INT-based) instance.
func New(cfg Config) *core.PowerTCP { return core.New(cfg) }

// NewTheta returns a θ-PowerTCP (Algorithm 2, delay-based) instance.
func NewTheta(cfg Config) *core.ThetaPowerTCP { return core.NewTheta(cfg) }

// Baseline constructors (§4 comparisons plus the Fig. 1 taxonomy
// references).
var (
	NewHPCC   = cc.NewHPCC
	NewTimely = cc.NewTimely
	NewDCQCN  = cc.NewDCQCN
	NewDCTCP  = cc.NewDCTCP
	NewReno   = cc.NewReno
)

// Unbounded marks a flow with no end (background traffic).
const Unbounded = transport.Unbounded

// Topologies.
type (
	// Network is a wired topology ready to run.
	Network = topo.Network
	// NetOptions are shared topology options (buffers, INT, ECN, queues).
	NetOptions = topo.Options
	// StarConfig, DumbbellConfig and FatTreeConfig describe topologies;
	// FatTreeConfig's defaults are the paper's §4.1 evaluation fabric.
	StarConfig     = topo.StarConfig
	DumbbellConfig = topo.DumbbellConfig
	FatTreeConfig  = topo.FatTreeConfig
	// LeafSpineConfig and ParkingLotConfig cover the two-tier Clos and
	// multi-bottleneck chain used by ablations.
	LeafSpineConfig  = topo.LeafSpineConfig
	ParkingLotConfig = topo.ParkingLotConfig
)

// Topology builders.
var (
	Star       = topo.Star
	Dumbbell   = topo.Dumbbell
	FatTree    = topo.FatTree
	LeafSpine  = topo.LeafSpine
	ParkingLot = topo.ParkingLot
)

// Routing control plane (internal/route): pluggable multipath
// strategies for NetOptions.Routing, and the per-network Router that
// fails/restores links with control-plane reconvergence.
type (
	// RoutingStrategy decides how equal-cost paths are installed.
	RoutingStrategy = route.Strategy
	// Router is a built network's routing control plane (Network.Router).
	Router = route.Router
	// LinkEvent schedules one link failure or repair (Router.Schedule).
	LinkEvent = route.LinkEvent
)

// Routing strategies and helpers.
var (
	// RoutingSinglePath, RoutingECMP, RoutingWeightedECMP are the three
	// built-in strategies; RoutingByName resolves "single"/"ecmp"/"wecmp".
	RoutingSinglePath   = route.SinglePath{}
	RoutingECMP         = route.ECMP{}
	RoutingWeightedECMP = route.WeightedECMP{}
	RoutingByName       = route.StrategyByName
)

// Monitor wraps a congestion-control algorithm so every update is
// recorded (cwnd/rate/RTT time series; see internal/monitor).
var Monitor = monitor.Wrap

// Hosts adapts a transport configuration into the host factory topology
// builders consume.
func Hosts(cfg HostConfig) topo.HostFactory { return topo.TransportHosts(cfg) }

// Experiments: the paper's evaluation scenarios (incast, fairness,
// websearch, rdcn) and the multipath lab (permutation, asymmetry,
// failover) as typed presets. An ExperimentSpec names a preset value —
// its zero fields take the experiment's defaults — a scheme and a seed;
// run it with RunExperiment, or many concurrently with a Suite (Fig.
// 7a/7b's load sweep is a Suite of WebSearch cells, one per load). See EXPERIMENTS.md for the experiment↔figure index and
// the paper-vs-measured record.
type (
	// ExperimentSpec is the identity of one run: Preset, Scheme,
	// SchemeOpts, Seed, Label.
	ExperimentSpec = exp.Spec
	// The experiment parameter structs (ExperimentSpec.Preset).
	Incast      = exp.Incast
	Fairness    = exp.Fairness
	WebSearch   = exp.WebSearch
	RDCN        = exp.RDCN
	Permutation = exp.Permutation
	Asymmetry   = exp.Asymmetry
	Failover    = exp.Failover
	// ExperimentResult is a run's whole result: scalar metrics map
	// plus named series, JSON/TSV-encodable, read by name through
	// Lookup and SeriesNamed.
	ExperimentResult = scenario.Result
	Series           = scenario.Series
	SeriesPoint      = scenario.SeriesPoint
	// ExperimentSuite executes many specs over a worker pool.
	ExperimentSuite = exp.Suite
	// Scheme bundles a congestion-control choice with the switch
	// features it needs; SchemeOption composes ablation variants
	// (Gamma, Alpha) onto it.
	Scheme       = scenario.Scheme
	SchemeOption = scenario.SchemeOption
)

// KeepLinkDown, as Failover.RestoreAfter, leaves the failed link down.
const KeepLinkDown = exp.KeepLinkDown

// Experiment API entry points.
var (
	RunExperiment   = exp.Run
	NewSuite        = exp.NewSuite
	RunSuite        = exp.RunSuite
	ResolveScheme   = scenario.ResolveScheme
	ExperimentNames = exp.ExperimentNames
	SchemeNames     = scenario.SchemeNames
)

// Scheme options (ablation variants composed at resolution time).
// HOMA's overcommitment and reTCP's prebuffering are spelled in the
// scheme name instead: "homa-oc<N>", "retcp-<µs>".
var (
	Gamma = scenario.Gamma
	Alpha = scenario.Alpha
)

// Scheme names ResolveScheme accepts. The parameterized
// families "homa-oc<N>" (overcommitment) and "retcp-<µs>" (prebuffering)
// are resolvable too.
const (
	SchemePowerTCP      = scenario.PowerTCP
	SchemeThetaPowerTCP = scenario.ThetaPowerTCP
	SchemeHPCC          = scenario.HPCC
	SchemeTimely        = scenario.Timely
	SchemeDCQCN         = scenario.DCQCN
	SchemeDCTCP         = scenario.DCTCP
	SchemeReno          = scenario.Reno
	SchemeHoma          = scenario.Homa
	SchemeReTCP600      = scenario.ReTCP600
	SchemeReTCP1800     = scenario.ReTCP1800
)

// Composable scenario API (internal/scenario): an experiment is a
// Scenario value with four orthogonal axes — Topology × Traffic ×
// Events × Probes — executed by the generic RunScenario. The registered
// experiments above are presets over this layer; compose new scenarios
// (mixed traffic-class schemes, bursts during failovers, load steps)
// directly from these values instead of writing runner code.
type (
	// Scenario is the declarative experiment value.
	Scenario = scenario.Scenario
	// ScenarioFabric is the topology metadata traffic selectors resolve
	// against; ScenarioEnv is the built run probes observe.
	ScenarioFabric = scenario.Fabric
	ScenarioEnv    = scenario.Env
	// Traffic, ScenarioEvent and Probe are the per-axis element
	// interfaces; Timeline carries events plus reconvergence delay.
	Traffic       = scenario.Traffic
	ScenarioEvent = scenario.Event
	Probe         = scenario.Probe
	Timeline      = scenario.Timeline
	// Host/switch selectors keep scenarios valid across fabric scales.
	HostRef   = scenario.HostRef
	SwitchRef = scenario.SwitchRef
	HostSpan  = scenario.Span
	FlowSpec  = scenario.FlowSpec

	// Topology axis.
	StarTopology      = scenario.StarTopology
	FatTreeTopology   = scenario.FatTreeTopology
	LeafSpineTopology = scenario.LeafSpineTopology
	RotorTopology     = scenario.RotorTopology

	// Traffic axis.
	Flows              = scenario.Flows
	IncastPulse        = scenario.IncastPulse
	Staggered          = scenario.Staggered
	PoissonLoad        = scenario.PoissonLoad
	IncastRequests     = scenario.IncastRequests
	PermutationTraffic = scenario.Permutation
	RackPairs          = scenario.RackPairs

	// Events axis.
	LinkFail      = scenario.LinkFail
	LinkRestore   = scenario.LinkRestore
	InjectTraffic = scenario.InjectTraffic

	// Probes axis.
	GoodputProbe = scenario.GoodputProbe
	QueueProbe   = scenario.QueueProbe
	FCTProbe     = scenario.FCTProbe
	CwndProbe    = scenario.CwndProbe
)

// Scenario entry points and selectors.
var (
	RunScenario       = scenario.Run
	TrafficWithScheme = scenario.WithScheme
	Host              = scenario.Host
	HostFromEnd       = scenario.HostFromEnd
	RackStart         = scenario.RackStart
	RackHost          = scenario.RackHost
	SwitchIndex       = scenario.SwitchIndex
	Leaf              = scenario.Leaf
	Spine             = scenario.Spine
	Tor               = scenario.Tor
	Agg               = scenario.Agg
	Core              = scenario.Core
)

// UnboundedFlowSize marks a scenario flow as endless background
// traffic; launch resolves it to the scheme-appropriate size.
const UnboundedFlowSize = scenario.Unbounded

// Fluid model (Figures 2–3 and Theorems 1–2).
type (
	// FluidSystem is the single-bottleneck fluid model of §2/App. A.
	FluidSystem = fluid.System
	// FluidState is (aggregate window, queue) in bytes.
	FluidState = fluid.State
	// FluidLaw selects the control-law family of the fluid model.
	FluidLaw = fluid.Law
)

// Control-law families of the fluid model.
const (
	LawVoltage = fluid.Voltage
	LawCurrent = fluid.Current
	LawPower   = fluid.Power
)
