package sim

import "testing"

// timerOwner is what an owner of an embedded timer looks like: the
// timer is a field, bound to a static callback with the owner as its
// argument.
type timerOwner struct {
	tm Timer
	fn func()
}

func runOwner(arg any) { arg.(*timerOwner).fn() }

// forEachTimer runs test once per way of making a timer that runs fn:
// NewTimer, and a Timer embedded in its owner and bound there.
func forEachTimer(t *testing.T, test func(t *testing.T, newTimer func(e *Engine, fn func()) *Timer)) {
	t.Run("NewTimer", func(t *testing.T) {
		test(t, func(e *Engine, fn func()) *Timer { return e.NewTimer(fn) })
	})
	t.Run("embedded", func(t *testing.T) {
		test(t, func(e *Engine, fn func()) *Timer {
			o := &timerOwner{fn: fn}
			o.tm.Bind(e, runOwner, o)
			return &o.tm
		})
	})
}

func TestTimerFires(t *testing.T) {
	forEachTimer(t, func(t *testing.T, newTimer func(*Engine, func()) *Timer) {
		e := New()
		fired := 0
		tm := newTimer(e, func() { fired++ })
		tm.ArmAfter(Microsecond)
		if !tm.Armed() {
			t.Fatal("timer not armed")
		}
		e.Run()
		if fired != 1 {
			t.Fatalf("fired %d times, want 1", fired)
		}
		if tm.Armed() {
			t.Fatal("timer still armed after firing")
		}
		if e.Now() != Time(Microsecond) {
			t.Fatalf("fired at %v, want 1µs", e.Now())
		}
	})
}

func TestTimerStop(t *testing.T) {
	forEachTimer(t, func(t *testing.T, newTimer func(*Engine, func()) *Timer) {
		e := New()
		fired := false
		tm := newTimer(e, func() { fired = true })
		tm.ArmAfter(Microsecond)
		tm.Stop()
		tm.Stop() // double stop is a no-op
		e.Run()
		if fired {
			t.Fatal("stopped timer fired")
		}
	})
}

// Extending an armed timer's deadline must defer the callback to the new
// instant — and fire exactly once there, not at the original deadline.
func TestTimerLazyExtension(t *testing.T) {
	forEachTimer(t, func(t *testing.T, newTimer func(*Engine, func()) *Timer) {
		e := New()
		var at []Time
		tm := newTimer(e, func() { at = append(at, e.Now()) })
		tm.ArmAfter(Microsecond)
		tm.Arm(Time(5 * Microsecond)) // push back: lazy, no heap rebuild
		e.Run()
		if len(at) != 1 || at[0] != Time(5*Microsecond) {
			t.Fatalf("fired at %v, want exactly once at 5µs", at)
		}
	})
}

// Re-arming for an earlier instant must replace the queued deadline.
func TestTimerRearmEarlier(t *testing.T) {
	forEachTimer(t, func(t *testing.T, newTimer func(*Engine, func()) *Timer) {
		e := New()
		var at []Time
		tm := newTimer(e, func() { at = append(at, e.Now()) })
		tm.Arm(Time(5 * Microsecond))
		tm.Arm(Time(2 * Microsecond))
		e.Run()
		if len(at) != 1 || at[0] != Time(2*Microsecond) {
			t.Fatalf("fired at %v, want exactly once at 2µs", at)
		}
	})
}

// A timer re-armed from its own callback keeps running (periodic use).
func TestTimerPeriodicSelfRearm(t *testing.T) {
	forEachTimer(t, func(t *testing.T, newTimer func(*Engine, func()) *Timer) {
		e := New()
		var tm *Timer
		ticks := 0
		tm = newTimer(e, func() {
			ticks++
			if ticks < 5 {
				tm.ArmAfter(Microsecond)
			}
		})
		tm.ArmAfter(Microsecond)
		e.Run()
		if ticks != 5 {
			t.Fatalf("ticked %d times, want 5", ticks)
		}
		if e.Now() != Time(5*Microsecond) {
			t.Fatalf("finished at %v, want 5µs", e.Now())
		}
	})
}

// Stop-then-rearm across a pending instance: the stale instance must not
// fire the callback at its old deadline.
func TestTimerStopRearm(t *testing.T) {
	forEachTimer(t, func(t *testing.T, newTimer func(*Engine, func()) *Timer) {
		e := New()
		var at []Time
		tm := newTimer(e, func() { at = append(at, e.Now()) })
		tm.Arm(Time(Microsecond))
		tm.Stop()
		tm.Arm(Time(3 * Microsecond))
		e.Run()
		if len(at) != 1 || at[0] != Time(3*Microsecond) {
			t.Fatalf("fired at %v, want exactly once at 3µs", at)
		}
	})
}

// Arming for the past clamps to now and fires in the current pass.
func TestTimerArmInPast(t *testing.T) {
	forEachTimer(t, func(t *testing.T, newTimer func(*Engine, func()) *Timer) {
		e := New()
		fired := false
		tm := newTimer(e, func() { fired = true })
		e.After(Microsecond, func() { tm.Arm(0) })
		e.Run()
		if !fired {
			t.Fatal("past-armed timer never fired")
		}
	})
}

// A timer's events carry the keys At would have given them: a timer
// armed alongside plain events fires in the same canonical position as
// an At event scheduled by the same call sequence.
func TestTimerKeysMatchAt(t *testing.T) {
	forEachTimer(t, func(t *testing.T, newTimer func(*Engine, func()) *Timer) {
		var got, want []int
		e := New()
		tm := newTimer(e, func() { got = append(got, 1) })
		e.At(Time(Microsecond), func() { got = append(got, 0) })
		tm.Arm(Time(Microsecond))
		e.At(Time(Microsecond), func() { got = append(got, 2) })
		e.Run()
		r := New()
		for i := range 3 {
			r.At(Time(Microsecond), func() { want = append(want, i) })
		}
		r.Run()
		if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
			t.Fatalf("firing order %v, want %v", got, want)
		}
	})
}

// The timer hot path — arm, fire, re-arm, extend — must not allocate in
// steady state. This is the engine-side half of the tentpole's
// zero-allocation guarantee (the link.Port half lives in internal/link).
func TestTimerZeroAllocSteadyState(t *testing.T) {
	forEachTimer(t, func(t *testing.T, newTimer func(*Engine, func()) *Timer) {
		e := New()
		tm := newTimer(e, func() {})
		cycle := func() {
			tm.ArmAfter(Microsecond)
			tm.ArmAfter(2 * Microsecond) // lazy extension
			e.Run()
			tm.ArmAfter(Microsecond)
			tm.Stop()
			tm.ArmAfter(Microsecond) // fresh instance while a dead one queues
			e.Run()
		}
		// Warm up the pool and the wheel. Arming walks the clock forward
		// and the wheel sizes each slot's chunk list on first touch, so
		// the warm-up repeats the measured cycle often enough to visit
		// every slot residue the cycle's stride will ever land in.
		for i := 0; i < 256; i++ {
			cycle()
		}
		allocs := testing.AllocsPerRun(100, cycle)
		if allocs > 0.5 {
			t.Fatalf("timer path allocates %.1f allocs/run, want 0", allocs)
		}
	})
}

// An embedded timer costs nothing past its owner: on a warmed engine,
// binding it, arming, extending, re-arming earlier, stopping and firing
// allocate nothing.
func TestEmbeddedTimerZeroAlloc(t *testing.T) {
	e := New()
	o := &timerOwner{fn: func() {}}
	cycle := func() {
		o.tm.Bind(e, runOwner, o)
		o.tm.ArmAfter(2 * Microsecond)
		o.tm.ArmAfter(3 * Microsecond) // extend: lazy
		o.tm.ArmAfter(Microsecond)     // earlier: replaces the queued instance
		o.tm.Stop()
		o.tm.ArmAfter(Microsecond)
		e.Run() // fires
	}
	for i := 0; i < 256; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("embedded timer allocates %.1f allocs/cycle, want 0", allocs)
	}
}
