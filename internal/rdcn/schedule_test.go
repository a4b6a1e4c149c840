package rdcn

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestScheduleBasics(t *testing.T) {
	s := &Schedule{Tors: 25, Day: 225 * sim.Microsecond, Night: 20 * sim.Microsecond}
	if s.Matchings() != 24 {
		t.Fatalf("matchings = %d", s.Matchings())
	}
	if s.Slot() != 245*sim.Microsecond {
		t.Fatalf("slot = %v", s.Slot())
	}
	if s.Week() != 24*245*sim.Microsecond {
		t.Fatalf("week = %v", s.Week())
	}
	// Matching 0 connects i → i+1.
	if s.DstOf(0, 0) != 1 || s.DstOf(24, 0) != 0 {
		t.Fatal("DstOf matching 0 broken")
	}
	if m := s.MatchingFor(3, 4); m != 0 {
		t.Fatalf("MatchingFor(3,4) = %d", m)
	}
	if m := s.MatchingFor(4, 3); m != 23 {
		t.Fatalf("MatchingFor(4,3) = %d", m)
	}
	if s.MatchingFor(7, 7) != -1 {
		t.Fatal("self matching must be -1")
	}
}

// Property: every ordered ToR pair is connected exactly once per week,
// and MatchingFor agrees with DstOf.
func TestScheduleCoversAllPairs(t *testing.T) {
	prop := func(nRaw uint8) bool {
		n := int(nRaw%20) + 3
		s := &Schedule{Tors: n, Day: sim.Microsecond, Night: sim.Microsecond}
		for src := 0; src < n; src++ {
			seen := map[int]int{}
			for m := 0; m < s.Matchings(); m++ {
				d := s.DstOf(src, m)
				if d == src {
					return false
				}
				seen[d]++
				if s.MatchingFor(src, d) != m {
					return false
				}
			}
			if len(seen) != n-1 {
				return false
			}
			for _, c := range seen {
				if c != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleTimeDecomposition(t *testing.T) {
	s := &Schedule{Tors: 4, Day: 100 * sim.Microsecond, Night: 10 * sim.Microsecond}
	m, inDay, into := s.At(sim.Time(50 * sim.Microsecond))
	if m != 0 || !inDay || into != 50*sim.Microsecond {
		t.Fatalf("At(50µs) = %d %v %v", m, inDay, into)
	}
	m, inDay, _ = s.At(sim.Time(105 * sim.Microsecond))
	if m != 0 || inDay {
		t.Fatalf("At(105µs) in night: %d %v", m, inDay)
	}
	m, inDay, _ = s.At(sim.Time(115 * sim.Microsecond))
	if m != 1 || !inDay {
		t.Fatalf("At(115µs): %d %v", m, inDay)
	}
	// Wraps after a week (3 slots).
	m, _, _ = s.At(sim.Time(3 * 110 * sim.Microsecond))
	if m != 0 {
		t.Fatalf("week wrap: m = %d", m)
	}
}

func TestNextDayStart(t *testing.T) {
	s := &Schedule{Tors: 4, Day: 100 * sim.Microsecond, Night: 10 * sim.Microsecond}
	// src 0 → dst 2 is matching 1, whose day starts at 110µs.
	if got := s.NextDayStart(0, 2, 0); got != sim.Time(110*sim.Microsecond) {
		t.Fatalf("NextDayStart = %v", got)
	}
	// From inside that day, the next start is one week later.
	if got := s.NextDayStart(0, 2, sim.Time(150*sim.Microsecond)); got != sim.Time((110+330)*sim.Microsecond) {
		t.Fatalf("NextDayStart mid-day = %v", got)
	}
}

func TestActiveOrUpcoming(t *testing.T) {
	s := &Schedule{Tors: 4, Day: 100 * sim.Microsecond, Night: 10 * sim.Microsecond}
	if !s.ActiveOrUpcoming(0, 1, sim.Time(10*sim.Microsecond), 0) {
		t.Fatal("matching 0 active at t=10µs")
	}
	if s.ActiveOrUpcoming(0, 2, sim.Time(10*sim.Microsecond), 0) {
		t.Fatal("matching 1 must not be active at t=10µs")
	}
	// With a 105µs lead, the day at 110µs is upcoming from t=10µs.
	if !s.ActiveOrUpcoming(0, 2, sim.Time(10*sim.Microsecond), 105*sim.Microsecond) {
		t.Fatal("prebuffer lead not honoured")
	}
}
