package scenario

import (
	"fmt"

	"repro/internal/fluid"
	"repro/internal/hybrid"
	"repro/internal/link"
	"repro/internal/sim"
)

// This file compiles a Fluid-fidelity traffic component into per-link
// demand contributions for the hybrid coupler (internal/hybrid). The
// component's flow trace is generated exactly as at packet fidelity —
// same generator, same seed — but instead of launching transports, each
// flow becomes a time-windowed arrival-rate contribution on every port
// its packets would have crossed, split over ECMP candidates by
// topo.Network.WalkRoutes (the fluid limit of per-flow hashing).
//
// Restrictions (all validated here, never silently ignored): fluid
// components need a static routing plane (no link-failure timeline and
// no rotor — demand is routed once at prepare), and an open traffic
// shape whose offered rate is well defined up front (Flows, PoissonLoad,
// Permutation, RackPairs; pulse/staggered/request shapes are reactive
// foreground patterns that belong at packet fidelity).
//
// A sharded fabric needs nothing extra: the coupler ticks on env.Eng(),
// the psim control engine, and a control event runs while every shard is
// paused at its key. A tick only reads port counters and calls
// SetVirtualLoad, which schedules nothing, so it sees and leaves the
// same state at any shard count.

// hybridExchangeDivisor sets the exchange interval to BaseRTT/4: well
// below the RTT the ODE's time constants are defined over, so the RK4
// step resolves the law's dynamics, while keeping the per-link tick
// cost negligible against the packet event stream it replaces.
const hybridExchangeDivisor = 4

// fluidEligible reports whether a traffic component's shape can carry
// fluid fidelity.
func fluidEligible(tr Traffic) bool {
	switch tr.(type) {
	case Flows, PoissonLoad, Permutation, RackPairs:
		return true
	}
	return false
}

// fluidLawFor maps a congestion-control scheme to the fluid control-law
// family of §2: PowerTCP variants integrate the power law, TIMELY the
// current (RTT-gradient) law, and everything else the voltage
// (queue/delay) law — the family the paper itself files HPCC, Swift,
// DCTCP and the loss-based schemes under.
func fluidLawFor(s Scheme) (fluid.Law, float64) {
	gamma := s.Gamma
	if gamma == 0 {
		gamma = 0.9
	}
	switch {
	case s.Kind == KindPowerTCP || s.Kind == KindTheta:
		return fluid.Power, gamma
	case s.Name == Timely:
		return fluid.Current, gamma
	}
	return fluid.Voltage, gamma
}

// launchFluid compiles one fluid component onto the coupler, creating
// the coupler on first use. law is the component's effective scheme
// (the override if present, the base scheme otherwise) — it selects the
// control-law family the aggregate obeys.
func (env *Env) launchFluid(tr Traffic, law Scheme, shift sim.Duration) error {
	if env.Lab.Net.Rotor != nil {
		return fmt.Errorf("scenario: fluid fidelity is not supported on the rotor topology (fluid demand is routed once, before the run; rotor routes rotate)")
	}
	if !fluidEligible(tr) {
		return fmt.Errorf("scenario: traffic kind %T cannot run at fluid fidelity (eligible: Flows, PoissonLoad, Permutation, RackPairs)", tr)
	}
	if shift > 0 {
		return fmt.Errorf("scenario: injected traffic cannot run at fluid fidelity")
	}
	for _, ev := range env.Scenario.Events.Events {
		if _, ok := ev.(LinkFail); ok {
			return fmt.Errorf("scenario: fluid fidelity cannot be combined with link failures (fluid demand is routed once, before the run)")
		}
	}

	net := env.Lab.Net
	if env.Hybrid == nil {
		interval := net.BaseRTT / hybridExchangeDivisor
		env.Hybrid = hybrid.New(env.Eng(), interval, env.Horizon)
	}
	c := env.Hybrid

	flows, err := tr.generate(env.Fabric, env.Seed)
	if err != nil {
		return err
	}

	lawKind, gamma := fluidLawFor(law)
	tmpl := fluid.System{
		Tau:   net.BaseRTT,
		Gamma: gamma,
		Dt:    net.BaseRTT / 2,
		Law:   lawKind,
	}
	nicRate := net.HostRate.BytesPerSec()
	for _, f := range flows {
		if f.Start < 0 {
			return fmt.Errorf("scenario: flow %d→%d starts at negative time %v", f.Src, f.Dst, f.Start)
		}
		if f.Size != Unbounded && f.Size <= 0 {
			return fmt.Errorf("scenario: flow %d→%d has non-positive size %d (use Unbounded for endless flows)",
				f.Src, f.Dst, f.Size)
		}
		start := f.Start
		end := env.Horizon
		greedy := true
		if f.Size != Unbounded {
			// A sized flow offers NIC line rate for the time an
			// uncongested transfer would take; congestion shows up as the
			// aggregate window cap, not as a stretched window of offered
			// demand (open-loop arrivals do not slow down).
			greedy = false
			dur := net.HostRate.TxTime(f.Size)
			end = start.Add(dur)
			if end > env.Horizon {
				end = env.Horizon
			}
		}
		if end <= start {
			continue
		}
		net.WalkRoutes(f.Src, f.Dst, func(pt *link.Port, frac float64) {
			c.LinkFor(pt, tmpl).AddContribution(start, end, nicRate*frac, greedy)
		})
	}
	return nil
}
