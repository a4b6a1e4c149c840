// Package rdcn holds what is specific to the reconfigurable datacenter
// network of the paper's case study (§5) and needs no fabric: the rotor
// switch's calendar (Schedule) — a fixed family of permutations, each
// matching held for one "day" (225 µs) followed by a reconfiguration
// "night" (20 µs), every ToR pair directly connected once per "week" of
// N−1 matchings — and reTCP, the circuit-aware transport the case study
// compares against. The network itself is an ordinary topo.Network
// (topo.RotorFabric): ToRs with per-destination virtual output queues
// (VOQs) on one more switch port, re-pointed each slot by topo.Rotor.
package rdcn

import "repro/internal/sim"

// Schedule is the rotor switch's fixed permutation calendar.
type Schedule struct {
	Tors  int          // number of ToR switches (ports on the rotor)
	Day   sim.Duration // time a matching stays installed (circuit on)
	Night sim.Duration // reconfiguration gap (circuit dark)
}

// Slot is one day+night period.
func (s *Schedule) Slot() sim.Duration { return s.Day + s.Night }

// Week is the time for the rotor to cycle through all N−1 matchings.
func (s *Schedule) Week() sim.Duration {
	return sim.Duration(s.Tors-1) * s.Slot()
}

// Matchings returns the number of distinct matchings (N−1).
func (s *Schedule) Matchings() int { return s.Tors - 1 }

// DstOf returns the ToR that tor's circuit reaches under matching m:
// the rotor implements the cyclic permutation family i → i+m+1 (mod N),
// which connects every ordered pair exactly once per week.
func (s *Schedule) DstOf(tor, m int) int {
	return (tor + m + 1) % s.Tors
}

// MatchingFor returns the matching index under which src's circuit
// reaches dst. src == dst has no matching and returns -1.
func (s *Schedule) MatchingFor(src, dst int) int {
	if src == dst {
		return -1
	}
	return ((dst-src-1)%s.Tors + s.Tors) % s.Tors
}

// At decomposes a time into (matching index, inDay, time into the slot).
func (s *Schedule) At(t sim.Time) (m int, inDay bool, into sim.Duration) {
	slot := s.Slot()
	abs := sim.Duration(t)
	idx := int(abs/slot) % s.Matchings()
	into = abs % slot
	return idx, into < s.Day, into
}

// NextDayStart returns the first time ≥ from at which the matching
// connecting src→dst begins a day.
func (s *Schedule) NextDayStart(src, dst int, from sim.Time) sim.Time {
	m := s.MatchingFor(src, dst)
	if m < 0 {
		return sim.Forever
	}
	slot := s.Slot()
	week := s.Week()
	// Day starts for matching m occur at m·slot + k·week.
	base := sim.Duration(m) * slot
	if sim.Duration(from) <= base {
		return sim.Time(base)
	}
	k := (sim.Duration(from) - base + week - 1) / week
	return sim.Time(base + k*week)
}

// ActiveOrUpcoming reports whether src's circuit to dst is currently in a
// day, or will enter one within lead. Used for routing: lead 0 is the
// paper's "forward on the circuit exclusively when available"; a positive
// lead implements reTCP's prebuffering window.
func (s *Schedule) ActiveOrUpcoming(src, dst int, now sim.Time, lead sim.Duration) bool {
	m := s.MatchingFor(src, dst)
	if m < 0 {
		return false
	}
	cur, inDay, _ := s.At(now)
	if cur == m && inDay {
		return true
	}
	if lead <= 0 {
		return false
	}
	next := s.NextDayStart(src, dst, now)
	return next.Sub(now) <= lead
}
