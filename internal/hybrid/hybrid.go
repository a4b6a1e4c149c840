// Package hybrid couples the paper's fluid model (internal/fluid) to
// the packet engine: traffic components marked Fluid by a scenario
// compile to per-link time-varying background arrival-rate processes,
// integrated with RK4 on the simulation clock, while packet-fidelity
// components keep running packet-by-packet through the same ports.
//
// The coupling is two-way and happens at a fixed exchange interval:
//
//   - packet → fluid: at each exchange instant every coupled link's ODE
//     observes the port's real queue depth, so the fluid aggregate
//     reacts to foreground congestion exactly as the law prescribes;
//   - fluid → packet: the integrated fluid arrival rate becomes integer
//     bytes through a remainder-carrying accumulator, feeds a per-link
//     backlog ledger, and is folded back into the port as virtual
//     backlog (inflating the INT/ECN queue signal the schemes read) and
//     a serializer capacity share (stretching packet serialization to
//     the residual rate) — see link.Port.SetVirtualLoad.
//
// Determinism is preserved by construction: the exchange ticks are
// ordinary engine events under their own causal-origin key, links are
// visited in fixed creation order, the ODE state advances only from
// values read at tick instants, and all cross-fidelity byte flow goes
// through the integer ledger — so a fixed seed yields byte-identical
// Results, like every other mode of the engine.
//
// Conservation is exact, not approximate: per link,
// emitted − delivered − backlog ≡ 0 holds at every instant because the
// three words move together in integer bytes (the ODE only shapes the
// rates). The scenario accounting probe folds these totals into the
// network-wide byte ledger the fuzzlab invariant checks.
package hybrid

import (
	"math"
	"sort"

	"repro/internal/fluid"
	"repro/internal/link"
	"repro/internal/sim"
)

// maxShare caps the serializer fraction fluid traffic may claim, so a
// saturating background stretches packet serialization 20× rather than
// starving the foreground outright (a real fabric would also never
// fully starve a backlogged class — the foreground's own packets keep
// arriving and claim slots).
const maxShare = 0.95

// rateDelta is one edge of a link's piecewise-constant offered-demand
// profile: at time at, the offered rate changes by dRate bytes/s and
// the count of active closed-loop (greedy) contributions by dGreedy.
type rateDelta struct {
	at      sim.Time
	dRate   float64
	dGreedy int
}

// LinkFluid is the fluid state of one coupled egress port.
type LinkFluid struct {
	Port *link.Port
	Sys  fluid.LinkSystem
	St   fluid.State

	// Integer byte ledger: emitted − delivered − backlog ≡ 0 always.
	emitted   int64
	delivered int64
	backlog   int64
	carry     float64 // fractional arrival remainder (bytes)

	lastTx uint64 // Port.TxBytes() at the previous exchange instant

	deltas    []rateDelta
	di        int
	curRate   float64
	curGreedy int
}

// AddContribution adds one traffic contribution to the link's offered
// demand: rate bytes/s over [start, end). Greedy marks a closed-loop
// component (an endless flow that wants whatever the window allows) —
// while any greedy contribution is active the demand cap is lifted and
// the control law alone throttles the aggregate.
func (lf *LinkFluid) AddContribution(start, end sim.Time, rate float64, greedy bool) {
	if end <= start || rate <= 0 {
		return
	}
	g := 0
	if greedy {
		g = 1
	}
	lf.deltas = append(lf.deltas, rateDelta{at: start, dRate: rate, dGreedy: g})
	lf.deltas = append(lf.deltas, rateDelta{at: end, dRate: -rate, dGreedy: -g})
}

// demandBytes integrates the offered demand over (t0, t1], advancing
// the piecewise-constant profile, and reports whether any closed-loop
// contribution was active in the interval.
func (lf *LinkFluid) demandBytes(t0, t1 sim.Time) (bytes float64, greedy bool) {
	t := t0
	if lf.curGreedy > 0 {
		greedy = true
	}
	for lf.di < len(lf.deltas) && lf.deltas[lf.di].at <= t1 {
		d := lf.deltas[lf.di]
		if d.at > t {
			bytes += lf.curRate * (d.at - t).Seconds()
			t = d.at
		}
		lf.curRate += d.dRate
		lf.curGreedy += d.dGreedy
		if lf.curGreedy > 0 {
			greedy = true
		}
		lf.di++
	}
	bytes += lf.curRate * (t1 - t).Seconds()
	return bytes, greedy
}

// Coupler owns the fluid side of a hybrid run: one LinkFluid per
// coupled port and the exchange loop that advances them.
type Coupler struct {
	Eng *sim.Engine
	// Interval is the exchange interval Δ between couplings.
	Interval sim.Duration
	// Horizon bounds the exchange loop.
	Horizon sim.Time

	links  []*LinkFluid
	byPort map[*link.Port]*LinkFluid
	lastT  sim.Time
}

// New builds a coupler on eng exchanging every interval until horizon.
func New(eng *sim.Engine, interval sim.Duration, horizon sim.Time) *Coupler {
	if interval <= 0 {
		interval = sim.Microsecond
	}
	return &Coupler{
		Eng:      eng,
		Interval: interval,
		Horizon:  horizon,
		byPort:   map[*link.Port]*LinkFluid{},
	}
}

// LinkFor returns the fluid instance coupled to pt, creating it from
// the System template on first use (B is taken from the port's line
// rate; Beta, if zero, defaults to 5% of the link BDP, matching the
// paper's figure configuration of β̂ = 12.5 kB at a 250 kB BDP).
func (c *Coupler) LinkFor(pt *link.Port, tmpl fluid.System) *LinkFluid {
	if lf, ok := c.byPort[pt]; ok {
		return lf
	}
	sys := tmpl
	sys.B = pt.Rate
	if sys.Beta == 0 {
		sys.Beta = 0.05 * sys.BDP()
	}
	lf := &LinkFluid{
		Port: pt,
		Sys:  fluid.LinkSystem{System: sys, Demand: math.Inf(1)},
		// The aggregate starts at the additive-increase floor, the fluid
		// analogue of flows ramping from a small initial window.
		St: fluid.State{W: sys.Beta},
	}
	c.byPort[pt] = lf
	c.links = append(c.links, lf)
	return lf
}

// Totals sums the ledger across all coupled links. By construction
// emitted − delivered − backlog ≡ 0.
func (c *Coupler) Totals() (emitted, delivered, backlog int64) {
	for _, lf := range c.links {
		emitted += lf.emitted
		delivered += lf.delivered
		backlog += lf.backlog
	}
	return
}

// Start freezes each link's demand profile and schedules the exchange
// loop. The caller must have set the engine's causal origin for the
// coupler (scenario setup uses a dedicated origin-key namespace), so
// the tick chain's canonical keys are stable regardless of what else
// the run schedules.
func (c *Coupler) Start() {
	for _, lf := range c.links {
		d := lf.deltas
		sort.SliceStable(d, func(i, j int) bool { return d[i].at < d[j].at })
		lf.lastTx = lf.Port.TxBytes()
	}
	c.lastT = c.Eng.Now()
	c.Eng.After(c.Interval, c.tick)
}

// tick is one exchange: advance every link's ODE across the elapsed
// interval against the observed packet queue, convert the integrated
// arrival rate to integer bytes, serve the backlog with the capacity
// the packet side left unused, and install the resulting virtual load
// on the port for the next interval.
func (c *Coupler) tick() {
	now := c.Eng.Now()
	h := (now - c.lastT).Seconds()
	for _, lf := range c.links {
		c.exchange(lf, c.lastT, now, h)
	}
	c.lastT = now
	if next := now.Add(c.Interval); next <= c.Horizon {
		c.Eng.After(c.Interval, c.tick)
	}
}

func (c *Coupler) exchange(lf *LinkFluid, t0, t1 sim.Time, h float64) {
	b := lf.Sys.B.BytesPerSec()
	offered, greedy := lf.demandBytes(t0, t1)
	if greedy {
		lf.Sys.Demand = math.Inf(1)
	} else {
		lf.Sys.Demand = offered / h
	}
	qPkt := float64(lf.Port.QueueBytes())

	// Advance the aggregate window; the fluid queue component tracks the
	// integer ledger, not the ODE's own estimate (synced below).
	lf.St = lf.Sys.StepCoupled(lf.St, qPkt, h)
	lam := lf.Sys.Lambda(lf.St, qPkt)

	// Arrivals: λ·Δ in integer bytes with remainder carry, additionally
	// capped by the offered bytes (a finite demand can't arrive faster
	// than it was offered, whatever the window says).
	arr := lam * h
	if !greedy && arr > offered {
		arr = offered
	}
	exact := arr + lf.carry
	a := int64(exact)
	if a < 0 {
		a = 0
	}
	lf.carry = exact - float64(a)

	// Service: the line moved b·Δ bytes this interval; whatever the
	// packet side actually serialized comes off the top, the rest drains
	// fluid backlog. Measuring real packet wire bytes (not an estimate)
	// is what makes the capacity split exact.
	txNow := lf.Port.TxBytes()
	pktWire := int64(txNow - lf.lastTx)
	lf.lastTx = txNow
	svc := int64(b*h) - pktWire
	if svc < 0 {
		svc = 0
	}
	avail := lf.backlog + a
	served := avail
	if served > svc {
		served = svc
	}
	lf.emitted += a
	lf.delivered += served
	lf.backlog = avail - served

	// Sync the ODE's queue estimate to the authoritative ledger before
	// the next step, and fold the result back into the port: backlog as
	// INT/ECN-visible bytes, and the share of the next interval's
	// serializer capacity the fluid side will claim.
	lf.St.Q = float64(lf.backlog)
	want := float64(lf.backlog) + lam*h
	share := 0.0
	if capacity := b * h; capacity > 0 {
		share = want / capacity
	}
	if share > maxShare {
		share = maxShare
	}
	if share < 0 {
		share = 0
	}
	lf.Port.SetVirtualLoad(lf.backlog, share)
}
