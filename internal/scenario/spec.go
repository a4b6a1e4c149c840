package scenario

import (
	"fmt"

	"repro/internal/sim"
)

// Spec is a fully serializable scenario description — the wire form of
// a run. The fuzz lab's generator emits Specs, its shrinker edits them,
// the pinned corpus stores them, and the powersimd service accepts them
// as request bodies; Build compiles one into a fresh Scenario
// (scenarios are single-use), so one Spec can be run repeatedly and at
// different partition counts. Host and switch references are the
// Scenario's own HostRef and SwitchRef, held by pointer: an absent one
// is the unset value, which the run refuses where it must resolve it.
//
// The JSON encoding is canonical and versioned — see MarshalCanonical,
// DecodeSpec, and SpecKey in canonical.go. V carries the encoding
// version (SpecVersion); a zero V in an in-memory Spec is normalized to
// the current version on encode.
type Spec struct {
	V            int           `json:"v"`
	Name         string        `json:"name,omitempty"`
	Seed         int64         `json:"seed"`
	Scheme       string        `json:"scheme"`
	Topo         TopoSpec      `json:"topo"`
	Traffic      []TrafficSpec `json:"traffic"`
	Events       []EventSpec   `json:"events,omitempty"`
	ReconvergeUS int64         `json:"reconverge_us,omitempty"`
	HorizonUS    int64         `json:"horizon_us"`
}

// TopoSpec describes the fabric axis. Kind selects the topology; the
// dimension fields that apply to other kinds are ignored (and kept
// zero by the generator, so canonical JSON stays minimal).
type TopoSpec struct {
	// Kind is "star", "leafspine", or "fattree".
	Kind string `json:"kind"`
	// Hosts sizes a star.
	Hosts int `json:"hosts,omitempty"`
	// Leaves/Spines/ServersPerLeaf size a leaf-spine.
	Leaves         int `json:"leaves,omitempty"`
	Spines         int `json:"spines,omitempty"`
	ServersPerLeaf int `json:"servers_per_leaf,omitempty"`
	// ServersPerTor sizes a fat-tree (the default 4-pod structure).
	ServersPerTor int `json:"servers_per_tor,omitempty"`
	// Routing names the multipath strategy ("" keeps per-flow ECMP).
	Routing string `json:"routing,omitempty"`
}

// FlowEntry is one explicit transfer of a "flows" component.
type FlowEntry struct {
	StartUS int64    `json:"start_us,omitempty"`
	Src     *HostRef `json:"src"`
	Dst     *HostRef `json:"dst"`
	// Size in bytes; -1 means Unbounded.
	Size int64 `json:"size"`
}

// TrafficSpec is one workload component, a tagged union over Kind.
// Fields that do not apply to the Kind stay zero.
type TrafficSpec struct {
	// Kind is "flows", "pulse", "staggered", "poisson", "requests",
	// "permutation", or "rackpairs".
	Kind string `json:"kind"`
	// Override runs this component under its own per-flow scheme
	// (WithScheme); empty keeps the base scheme.
	Override string `json:"override,omitempty"`
	// Fidelity selects the simulation mode: "" or "packet" runs the
	// component packet-by-packet, "fluid" compiles it into the hybrid
	// coupler's per-link background demand (WithFidelity). Added in
	// spec version 2.
	Fidelity string `json:"fidelity,omitempty"`

	Flows []FlowEntry `json:"flows,omitempty"`

	AtUS     int64    `json:"at_us,omitempty"`
	Receiver *HostRef `json:"receiver,omitempty"`
	FanIn    int      `json:"fan_in,omitempty"`
	FlowSize int64    `json:"flow_size,omitempty"`
	SpanFrom *HostRef `json:"span_from,omitempty"`
	SpanTo   *HostRef `json:"span_to,omitempty"`

	FirstSender *HostRef `json:"first_sender,omitempty"`
	Count       int      `json:"count,omitempty"`
	StaggerUS   int64    `json:"stagger_us,omitempty"`
	Sizes       []int64  `json:"sizes,omitempty"`

	Load        float64 `json:"load,omitempty"`
	RequestRate float64 `json:"request_rate,omitempty"`
	RequestSize int64   `json:"request_size,omitempty"`
	// GenHorizonUS bounds open-loop trace generation (poisson, requests).
	GenHorizonUS int64 `json:"gen_horizon_us,omitempty"`

	FromRack *HostRef `json:"from_rack,omitempty"`
	ToRack   *HostRef `json:"to_rack,omitempty"`
	Size     int64    `json:"size,omitempty"`

	SeedOffset int64 `json:"seed_offset,omitempty"`
}

// EventSpec is one timeline entry.
type EventSpec struct {
	// Kind is "fail", "restore", or "inject".
	Kind string     `json:"kind"`
	AtUS int64      `json:"at_us"`
	A    *SwitchRef `json:"a,omitempty"`
	B    *SwitchRef `json:"b,omitempty"`
	// Inject carries the injected component for Kind "inject".
	Inject *TrafficSpec `json:"inject,omitempty"`
}

func us(v int64) sim.Duration { return sim.Duration(v) * sim.Microsecond }

// Partitionable reports whether the fabric supports PDES sharding —
// the specs eligible for the serial-vs-partitioned comparison.
func (s *Spec) Partitionable() bool {
	return s.Topo.Kind == "leafspine" || s.Topo.Kind == "fattree"
}

// PartsAxis returns the partition counts the invariant checker compares
// this spec across: [1] for unshardable fabrics, the full 1/2/4/8 axis
// otherwise.
func (s *Spec) PartsAxis() []int {
	if !s.Partitionable() {
		return []int{1}
	}
	return []int{1, 2, 4, 8}
}

// HasFluid reports whether any traffic component runs at fluid
// fidelity — the gate for the hybrid-vs-packet agreement invariant.
func (s *Spec) HasFluid() bool {
	for i := range s.Traffic {
		if s.Traffic[i].Fidelity == "fluid" {
			return true
		}
	}
	return false
}

func (s *Spec) buildTopology(parts int) (Topology, error) {
	switch s.Topo.Kind {
	case "star":
		return StarTopology{Hosts: s.Topo.Hosts}, nil
	case "leafspine":
		return LeafSpineTopology{
			Leaves:         s.Topo.Leaves,
			Spines:         s.Topo.Spines,
			ServersPerLeaf: s.Topo.ServersPerLeaf,
			Routing:        s.Topo.Routing,
			Partitions:     parts,
		}, nil
	case "fattree":
		return FatTreeTopology{
			ServersPerTor: s.Topo.ServersPerTor,
			Routing:       s.Topo.Routing,
			Partitions:    parts,
		}, nil
	}
	return nil, fmt.Errorf("scenario: unknown topology kind %q", s.Topo.Kind)
}

// deref reads a Spec's optional reference: nil is the unset value, which
// resolution refuses by name.
func deref[R HostRef | SwitchRef](r *R) R {
	if r == nil {
		var unset R
		return unset
	}
	return *r
}

func (t *TrafficSpec) build() (Traffic, error) {
	var built Traffic
	switch t.Kind {
	case "flows":
		list := make([]FlowSpec, 0, len(t.Flows))
		for _, fe := range t.Flows {
			list = append(list, FlowSpec{
				Start: sim.Time(us(fe.StartUS)), Src: deref(fe.Src), Dst: deref(fe.Dst), Size: fe.Size,
			})
		}
		built = Flows{List: list}
	case "pulse":
		built = IncastPulse{
			At: us(t.AtUS), Receiver: deref(t.Receiver), FanIn: t.FanIn,
			FlowSize: t.FlowSize, Senders: Span{From: deref(t.SpanFrom), To: deref(t.SpanTo)},
		}
	case "staggered":
		built = Staggered{
			Receiver: deref(t.Receiver), FirstSender: deref(t.FirstSender), Count: t.Count,
			Stagger: us(t.StaggerUS), Sizes: t.Sizes,
		}
	case "poisson":
		built = PoissonLoad{
			Load: t.Load, Start: us(t.AtUS),
			Horizon: us(t.GenHorizonUS), SeedOffset: t.SeedOffset,
		}
	case "requests":
		built = IncastRequests{
			RequestRate: t.RequestRate, RequestSize: t.RequestSize,
			FanIn: t.FanIn, Start: us(t.AtUS),
			Horizon: us(t.GenHorizonUS), SeedOffset: t.SeedOffset,
		}
	case "permutation":
		built = Permutation{SeedOffset: t.SeedOffset}
	case "rackpairs":
		built = RackPairs{FromRack: deref(t.FromRack), ToRack: deref(t.ToRack), Count: t.Count, Size: t.Size}
	default:
		return nil, fmt.Errorf("scenario: unknown traffic kind %q", t.Kind)
	}
	if t.Override != "" {
		built = WithScheme(t.Override, built)
	}
	switch t.Fidelity {
	case "", "packet":
	case "fluid":
		built = WithFidelity(Fluid, built)
	default:
		return nil, fmt.Errorf("scenario: unknown traffic fidelity %q (want \"packet\" or \"fluid\")", t.Fidelity)
	}
	return built, nil
}

func (e *EventSpec) build() (Event, error) {
	switch e.Kind {
	case "fail":
		return LinkFail{At: us(e.AtUS), A: deref(e.A), B: deref(e.B)}, nil
	case "restore":
		return LinkRestore{At: us(e.AtUS), A: deref(e.A), B: deref(e.B)}, nil
	case "inject":
		if e.Inject == nil {
			return nil, fmt.Errorf("scenario: inject event carries no traffic component")
		}
		tr, err := e.Inject.build()
		if err != nil {
			return nil, err
		}
		return InjectTraffic{At: us(e.AtUS), Traffic: tr}, nil
	}
	return nil, fmt.Errorf("scenario: unknown event kind %q", e.Kind)
}

// HasFailures reports whether the timeline cuts any link — the gate for
// the zero-black-hole invariant.
func (s *Spec) HasFailures() bool {
	for _, e := range s.Events {
		if e.Kind == "fail" {
			return true
		}
	}
	return false
}

// Build compiles the Spec into a fresh single-use Scenario run by parts
// workers over the fabric's own shards (see shardPlan; 1 is the calling
// goroutine), instrumented with the accounting and FCT probes the
// invariant checker and the serving path read. The Result is
// byte-identical at any count.
func (s *Spec) Build(parts int) (Scenario, error) {
	topo, err := s.buildTopology(parts)
	if err != nil {
		return Scenario{}, err
	}
	scheme, err := ResolveScheme(s.Scheme)
	if err != nil {
		return Scenario{}, err
	}
	var traffic []Traffic
	for i := range s.Traffic {
		tr, err := s.Traffic[i].build()
		if err != nil {
			return Scenario{}, err
		}
		traffic = append(traffic, tr)
	}
	var events []Event
	for i := range s.Events {
		ev, err := s.Events[i].build()
		if err != nil {
			return Scenario{}, err
		}
		events = append(events, ev)
	}
	name := s.Name
	if name == "" {
		name = fmt.Sprintf("fuzz-%d", s.Seed)
	}
	return Scenario{
		Name:     name,
		Scheme:   scheme,
		Seed:     s.Seed,
		Topology: topo,
		Traffic:  traffic,
		Events:   Timeline{Events: events, Reconverge: us(s.ReconvergeUS)},
		Probes:   []Probe{AccountingProbe{}, FCTProbe{}},
		Until:    us(s.HorizonUS),
	}, nil
}
