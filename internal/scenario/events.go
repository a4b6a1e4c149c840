package scenario

import (
	"fmt"

	"repro/internal/route"
	"repro/internal/sim"
)

// Timeline is the event axis of a Scenario: typed events applied in
// list order, plus the control-plane reconvergence delay between a link
// event and the routing tables reflecting it.
type Timeline struct {
	Events     []Event
	Reconverge sim.Duration
}

// Event is one timeline entry. Link events cut or repair wires through
// the routing control plane; InjectTraffic adds a whole workload
// component mid-run.
type Event interface {
	apply(env *Env, links *[]route.LinkEvent) error
}

// LinkFail cuts the A–B wire (both directions) at At. Packets already
// serialized onto the wire are lost at delivery; routing reconverges
// Timeline.Reconverge later.
type LinkFail struct {
	At   sim.Duration
	A, B SwitchRef
}

func (e LinkFail) apply(env *Env, links *[]route.LinkEvent) error {
	if e.At < 0 {
		return fmt.Errorf("scenario: link failure at negative time %v", e.At)
	}
	a, b, err := env.resolveLink(e.A, e.B)
	if err != nil {
		return err
	}
	*links = append(*links, route.LinkEvent{At: sim.Time(e.At), A: a, B: b, Down: true})
	return nil
}

// LinkRestore repairs the A–B wire at At.
type LinkRestore struct {
	At   sim.Duration
	A, B SwitchRef
}

func (e LinkRestore) apply(env *Env, links *[]route.LinkEvent) error {
	if e.At < 0 {
		return fmt.Errorf("scenario: link restore at negative time %v", e.At)
	}
	a, b, err := env.resolveLink(e.A, e.B)
	if err != nil {
		return err
	}
	*links = append(*links, route.LinkEvent{At: sim.Time(e.At), A: a, B: b})
	return nil
}

// InjectTraffic launches a traffic component shifted to start at At —
// load steps and bursts mid-run. The component's flows are generated
// up front (the workload is open-loop), so determinism is unaffected.
type InjectTraffic struct {
	At      sim.Duration
	Traffic Traffic
}

func (e InjectTraffic) apply(env *Env, links *[]route.LinkEvent) error {
	if e.Traffic == nil {
		return fmt.Errorf("scenario: InjectTraffic needs a traffic component")
	}
	if e.At < 0 {
		return fmt.Errorf("scenario: traffic injected at negative time %v", e.At)
	}
	if _, _, _, fd := unwrapTraffic(e.Traffic); fd == Fluid {
		// Fluid demand profiles are compiled against the routing tables
		// once, before the run starts; injection is a packet-fidelity
		// concept.
		return fmt.Errorf("scenario: injected traffic cannot run at fluid fidelity")
	}
	return env.launchComponent(e.Traffic, e.At)
}

func (env *Env) resolveLink(a, b SwitchRef) (int, int, error) {
	if env.Lab.Net.Rotor != nil {
		// The rotor has no switch references, on purpose: its timeline
		// rewrites the ToR tables every slot, and a link event's
		// Router.Rebuild would write the same tables.
		return 0, 0, fmt.Errorf("scenario: link events are not supported on %T (the rotor timeline and the control plane's rebuild would both write the ToR tables)", env.Scenario.Topology)
	}
	ai, err := env.resolveSwitch(a)
	if err != nil {
		return 0, 0, err
	}
	bi, err := env.resolveSwitch(b)
	if err != nil {
		return 0, 0, err
	}
	if n := len(env.Lab.Net.Switches); ai < 0 || ai >= n || bi < 0 || bi >= n {
		return 0, 0, fmt.Errorf("scenario: link event references switch %d–%d, network has %d switches", ai, bi, n)
	}
	return ai, bi, nil
}
