package scenario

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/workload"
)

// Traffic is one workload component of a Scenario. Components generate
// their flow trace against the fabric metadata; the generic Run launches
// every component's flows in order, so mixes and overlays are plain
// list entries instead of special-cased runner knobs.
type Traffic interface {
	generate(f Fabric, seed int64) ([]workload.Flow, error)
}

// FlowSpec is one explicitly placed transfer of a Flows component.
type FlowSpec struct {
	Start sim.Time
	Src   HostRef
	Dst   HostRef
	Size  int64 // bytes, or Unbounded
}

// Flows launches an explicit list of transfers — the building block for
// hand-crafted scenarios and for long background flows.
type Flows struct {
	List []FlowSpec
}

func (t Flows) generate(f Fabric, seed int64) ([]workload.Flow, error) {
	out := make([]workload.Flow, 0, len(t.List))
	for _, fs := range t.List {
		src, err := fs.Src.Resolve(f)
		if err != nil {
			return nil, err
		}
		dst, err := fs.Dst.Resolve(f)
		if err != nil {
			return nil, err
		}
		if src == dst {
			return nil, fmt.Errorf("scenario: flow from host %d to itself", src)
		}
		out = append(out, workload.Flow{Start: fs.Start, Src: src, Dst: dst, Size: fs.Size})
	}
	return out, nil
}

// IncastPulse fires FanIn simultaneous responses of FlowSize bytes each
// into Receiver at time At — the Figure 4 burst. Senders are drawn in
// index order from the Senders span; the zero span draws from every
// host outside the receiver's rack.
type IncastPulse struct {
	At       sim.Duration
	Receiver HostRef
	FanIn    int
	FlowSize int64
	Senders  Span
}

func (t IncastPulse) generate(f Fabric, seed int64) ([]workload.Flow, error) {
	rx, err := t.Receiver.Resolve(f)
	if err != nil {
		return nil, err
	}
	if t.FanIn <= 0 {
		return nil, fmt.Errorf("scenario: incast pulse needs FanIn ≥ 1")
	}
	from, to := 0, f.Hosts
	skipRack := -1
	if t.Senders.From != (HostRef{}) {
		if from, err = t.Senders.From.Resolve(f); err != nil {
			return nil, err
		}
		if t.Senders.To != (HostRef{}) {
			if to, err = t.Senders.To.Resolve(f); err != nil {
				return nil, err
			}
		}
	} else if t.Senders.To != (HostRef{}) {
		return nil, fmt.Errorf("scenario: incast pulse Senders.To is set without Senders.From")
	} else if f.HostsPerRack > 0 {
		skipRack = rx / f.HostsPerRack
	}
	var out []workload.Flow
	for i := from; len(out) < t.FanIn && i < to; i++ {
		if i == rx || (skipRack >= 0 && i/f.HostsPerRack == skipRack) {
			continue
		}
		out = append(out, workload.Flow{
			Start: sim.Time(t.At), Src: i, Dst: rx, Size: t.FlowSize,
		})
	}
	// A pulse wider than the sender pool caps at the pool (the probe
	// records the launched fan-in), but a pulse with no eligible sender
	// at all would "run" while measuring nothing.
	if len(out) == 0 {
		return nil, fmt.Errorf("scenario: incast pulse found no eligible senders for receiver %d", rx)
	}
	return out, nil
}

// Staggered launches Count flows toward Receiver with arrival spacing
// Stagger — the Figure 5 arrive-and-leave staircase. Flow i starts at
// i·Stagger from sender FirstSender+i with size Sizes[i] (the last size
// repeats when the list is shorter than Count).
type Staggered struct {
	Receiver    HostRef
	FirstSender HostRef
	Count       int
	Stagger     sim.Duration
	Sizes       []int64
}

func (t Staggered) generate(f Fabric, seed int64) ([]workload.Flow, error) {
	rx, err := t.Receiver.Resolve(f)
	if err != nil {
		return nil, err
	}
	first, err := t.FirstSender.Resolve(f)
	if err != nil {
		return nil, err
	}
	if t.Count <= 0 || len(t.Sizes) == 0 {
		return nil, fmt.Errorf("scenario: staggered flows need Count ≥ 1 and at least one size")
	}
	if t.Stagger < 0 {
		return nil, fmt.Errorf("scenario: staggered flows Stagger %v is negative", t.Stagger)
	}
	if first+t.Count > f.Hosts {
		return nil, fmt.Errorf("scenario: staggered flows need %d senders from host %d, fabric has %d hosts",
			t.Count, first, f.Hosts)
	}
	if first <= rx && rx < first+t.Count {
		return nil, fmt.Errorf("scenario: staggered sender range [%d,%d) includes the receiver %d",
			first, first+t.Count, rx)
	}
	out := make([]workload.Flow, 0, t.Count)
	for i := 0; i < t.Count; i++ {
		size := t.Sizes[len(t.Sizes)-1]
		if i < len(t.Sizes) {
			size = t.Sizes[i]
		}
		out = append(out, workload.Flow{
			Start: sim.Time(sim.Duration(i) * t.Stagger),
			Src:   first + i, Dst: rx, Size: size,
		})
	}
	return out, nil
}

// PoissonLoad offers the web-search open-loop Poisson process at a
// target rack-uplink load (§4.1): flow sizes from the web-search CDF,
// sources uniform over all hosts, destinations uniform over other racks.
type PoissonLoad struct {
	// Load is the offered load on the rack uplinks, within (0, 1].
	Load float64
	// Start shifts the whole trace (load steps); flows arrive in
	// [Start, Start+Horizon).
	Start sim.Duration
	// Horizon bounds trace generation.
	Horizon sim.Duration
	// SeedOffset decorrelates this component from others sharing the
	// scenario seed.
	SeedOffset int64
}

func (t PoissonLoad) generate(f Fabric, seed int64) ([]workload.Flow, error) {
	if f.UplinkCapPerRack == 0 || f.Racks < 2 {
		return nil, fmt.Errorf("scenario: Poisson load needs a multi-rack fabric with uplink capacity")
	}
	if !(t.Load > 0 && t.Load <= 1) {
		return nil, fmt.Errorf("scenario: Poisson load Load %g is outside (0, 1]", t.Load)
	}
	if t.Horizon <= 0 {
		return nil, fmt.Errorf("scenario: Poisson load needs a generation Horizon")
	}
	if t.Start < 0 {
		return nil, fmt.Errorf("scenario: Poisson load Start %v is negative", t.Start)
	}
	gen := &workload.Poisson{
		Load:             t.Load,
		UplinkCapPerRack: f.UplinkCapPerRack,
		Racks:            f.Racks,
		HostsPerRack:     f.HostsPerRack,
		Dist:             workload.WebSearch(),
		Seed:             seed + t.SeedOffset,
	}
	flows := gen.Generate(t.Horizon)
	if t.Start > 0 {
		for i := range flows {
			flows[i].Start = flows[i].Start.Add(t.Start)
		}
	}
	return flows, nil
}

// IncastRequests overlays the synthetic distributed-file-system incast
// workload (Fig. 7c–f): requests arrive at RequestRate; each fans out to
// FanIn responders in other racks that answer simultaneously with
// RequestSize/FanIn bytes.
type IncastRequests struct {
	RequestRate float64
	RequestSize int64
	FanIn       int
	Start       sim.Duration
	Horizon     sim.Duration
	SeedOffset  int64
}

func (t IncastRequests) generate(f Fabric, seed int64) ([]workload.Flow, error) {
	if f.Racks < 2 {
		return nil, fmt.Errorf("scenario: incast requests need a multi-rack fabric")
	}
	if !(t.RequestRate > 0) {
		return nil, fmt.Errorf("scenario: incast requests RequestRate %g is not positive", t.RequestRate)
	}
	if t.RequestSize <= 0 {
		return nil, fmt.Errorf("scenario: incast requests RequestSize %d is not positive", t.RequestSize)
	}
	if t.FanIn <= 0 {
		return nil, fmt.Errorf("scenario: incast requests need FanIn ≥ 1, got %d", t.FanIn)
	}
	if t.Horizon <= 0 {
		return nil, fmt.Errorf("scenario: incast requests need a generation Horizon")
	}
	if t.Start < 0 {
		return nil, fmt.Errorf("scenario: incast requests Start %v is negative", t.Start)
	}
	gen := &workload.Incast{
		RequestRate:  t.RequestRate,
		RequestSize:  t.RequestSize,
		FanIn:        t.FanIn,
		Racks:        f.Racks,
		HostsPerRack: f.HostsPerRack,
		Seed:         seed + t.SeedOffset,
	}
	flows := gen.Generate(t.Horizon)
	if t.Start > 0 {
		for i := range flows {
			flows[i].Start = flows[i].Start.Add(t.Start)
		}
	}
	return flows, nil
}

// Permutation launches one endless flow per host along a fixed-point-
// free host permutation derived from the seed — the canonical multipath
// stress.
type Permutation struct {
	SeedOffset int64
}

func (t Permutation) generate(f Fabric, seed int64) ([]workload.Flow, error) {
	perm := workload.Permutation(f.Hosts, seed+t.SeedOffset)
	out := make([]workload.Flow, 0, f.Hosts)
	for src, dst := range perm {
		out = append(out, workload.Flow{Start: 0, Src: src, Dst: dst, Size: Unbounded})
	}
	return out, nil
}

// RackPairs launches endless flows from the servers of one rack to
// their index counterparts in another — the cross-fabric load of the
// asymmetry and failover scenarios. Count 0 pairs the whole rack; a
// negative Count or one larger than the rack is an error.
type RackPairs struct {
	FromRack HostRef // the first source host, usually RackStart of the source rack
	ToRack   HostRef // the first destination host, usually RackStart of the destination rack
	Count    int
	Size     int64 // bytes per flow; 0 means Unbounded
}

func (t RackPairs) generate(f Fabric, seed int64) ([]workload.Flow, error) {
	src0, err := t.FromRack.Resolve(f)
	if err != nil {
		return nil, err
	}
	dst0, err := t.ToRack.Resolve(f)
	if err != nil {
		return nil, err
	}
	if t.Count < 0 || t.Count > f.HostsPerRack {
		return nil, fmt.Errorf("scenario: rack pairs Count %d is outside [0, %d], the rack size", t.Count, f.HostsPerRack)
	}
	n := t.Count
	if n == 0 {
		n = f.HostsPerRack
	}
	if src0+n > f.Hosts || dst0+n > f.Hosts {
		return nil, fmt.Errorf("scenario: rack pairs need %d hosts from %d and %d, fabric has %d",
			n, src0, dst0, f.Hosts)
	}
	if src0 == dst0 {
		return nil, fmt.Errorf("scenario: rack pairs from rack host %d to itself", src0)
	}
	size := t.Size
	if size == 0 {
		size = Unbounded
	}
	out := make([]workload.Flow, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, workload.Flow{Start: 0, Src: src0 + i, Dst: dst0 + i, Size: size})
	}
	return out, nil
}

// WithScheme runs a traffic component's flows under their own
// congestion-control scheme, so one scenario can mix traffic classes
// (e.g. a Reno background under a PowerTCP incast). The override must
// provide a per-flow algorithm, and any switch features it needs (INT,
// ECN marking) must already be enabled by the scenario's base scheme —
// the fabric is built once.
func WithScheme(scheme string, t Traffic) Traffic {
	return classed{scheme, t}
}

// classed and fidelitied generate their inner component's flows; only
// unwrapTraffic reads what they add.
type classed struct {
	scheme string
	Traffic
}

// Fidelity selects how a traffic component is simulated: packet by
// packet (the default), or as an analytic fluid aggregate coupled to
// the packet fabric through internal/hybrid.
type Fidelity int

const (
	// Packet simulates every flow packet-by-packet (full fidelity).
	Packet Fidelity = iota
	// Fluid compiles the component into per-link background
	// arrival-rate processes integrated on the simulation clock — the
	// scale knob for large background loads. Only open-shape components
	// (Flows, PoissonLoad, Permutation, RackPairs) can carry it, and
	// fluid components exclude link-failure timelines, injection, the
	// rotor fabric, and partitioned execution.
	Fluid
)

// WithFidelity runs a traffic component at the given fidelity, so one
// scenario can mix an analytically simulated background with
// packet-accurate foreground flows ("websearch load at 80% on a fabric
// too big to packet-simulate"). WithFidelity(Packet, t) is t's default
// behavior.
func WithFidelity(fd Fidelity, t Traffic) Traffic {
	return fidelitied{fd, t}
}

type fidelitied struct {
	fd Fidelity
	Traffic
}

// unwrapTraffic strips the wrapper chain off a component, collecting
// the outermost scheme override and fidelity regardless of nesting
// order (WithScheme over WithFidelity or the reverse).
func unwrapTraffic(tr Traffic) (inner Traffic, scheme string, hasScheme bool, fd Fidelity) {
	for {
		switch t := tr.(type) {
		case classed:
			if !hasScheme {
				scheme, hasScheme = t.scheme, true
			}
			tr = t.Traffic
		case fidelitied:
			if fd == Packet {
				fd = t.fd
			}
			tr = t.Traffic
		default:
			return tr, scheme, hasScheme, fd
		}
	}
}

// resolveOverride resolves and checks a per-component scheme override
// against the base scheme's fabric features.
func resolveOverride(name string, base Scheme) (Scheme, error) {
	over, err := ResolveScheme(name)
	if err != nil {
		return Scheme{}, err
	}
	if over.Alg == nil {
		return Scheme{}, fmt.Errorf("scenario: traffic-class scheme %q has no per-flow algorithm", name)
	}
	if base.IsHoma() {
		return Scheme{}, fmt.Errorf("scenario: traffic-class schemes need the window transport; base scheme %q is HOMA", base.Name)
	}
	if over.INT && !base.INT {
		return Scheme{}, fmt.Errorf("scenario: traffic-class scheme %q needs INT, but the fabric was built for %q without it",
			name, base.Name)
	}
	if over.ECN.Enabled() && over.ECN != base.ECN {
		return Scheme{}, fmt.Errorf("scenario: traffic-class scheme %q needs its own ECN marking profile, but the fabric was built with %q's switch configuration",
			name, base.Name)
	}
	return over, nil
}
