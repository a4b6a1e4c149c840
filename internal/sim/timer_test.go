package sim

import "testing"

func TestTimerFires(t *testing.T) {
	e := New()
	fired := 0
	tm := e.NewTimer(func() { fired++ })
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
}

func TestTimerStop(t *testing.T) {
	e := New()
	fired := false
	tm := e.NewTimer(func() { fired = true })
	tm.ArmAfter(Microsecond)
	tm.Stop()
	tm.Stop() // double stop is a no-op
	e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

// Extending an armed timer's deadline must defer the callback to the new
// instant — and fire exactly once there, not at the original deadline.
func TestTimerLazyExtension(t *testing.T) {
	e := New()
	var at []Time
	tm := e.NewTimer(func() { at = append(at, e.Now()) })
	tm.ArmAfter(Microsecond)
	tm.Arm(Time(5 * Microsecond)) // push back: lazy, no heap rebuild
	e.Run()
	if len(at) != 1 || at[0] != Time(5*Microsecond) {
		t.Fatalf("fired at %v, want exactly once at 5µs", at)
	}
}

// Re-arming for an earlier instant must replace the queued deadline.
func TestTimerRearmEarlier(t *testing.T) {
	e := New()
	var at []Time
	tm := e.NewTimer(func() { at = append(at, e.Now()) })
	tm.Arm(Time(5 * Microsecond))
	tm.Arm(Time(2 * Microsecond))
	e.Run()
	if len(at) != 1 || at[0] != Time(2*Microsecond) {
		t.Fatalf("fired at %v, want exactly once at 2µs", at)
	}
}

// A timer re-armed from its own callback keeps running (periodic use).
func TestTimerPeriodicSelfRearm(t *testing.T) {
	e := New()
	var tm *Timer
	ticks := 0
	tm = e.NewTimer(func() {
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
}

// Stop-then-rearm across a pending instance: the stale instance must not
// fire the callback at its old deadline.
func TestTimerStopRearm(t *testing.T) {
	e := New()
	var at []Time
	tm := e.NewTimer(func() { at = append(at, e.Now()) })
	tm.Arm(Time(Microsecond))
	tm.Stop()
	tm.Arm(Time(3 * Microsecond))
	e.Run()
	if len(at) != 1 || at[0] != Time(3*Microsecond) {
		t.Fatalf("fired at %v, want exactly once at 3µs", at)
	}
}

// Arming for the past clamps to now and fires in the current pass.
func TestTimerArmInPast(t *testing.T) {
	e := New()
	fired := false
	tm := e.NewTimer(func() { fired = true })
	e.After(Microsecond, func() { tm.Arm(0) })
	e.Run()
	if !fired {
		t.Fatal("past-armed timer never fired")
	}
}

// The timer hot path — arm, fire, re-arm, extend — must not allocate in
// steady state. This is the engine-side half of the tentpole's
// zero-allocation guarantee (the link.Port half lives in internal/link).
func TestTimerZeroAllocSteadyState(t *testing.T) {
	e := New()
	var tm *Timer
	tm = e.NewTimer(func() {})
	cycle := func() {
		tm.ArmAfter(Microsecond)
		tm.ArmAfter(2 * Microsecond) // lazy extension
		e.Run()
		tm.ArmAfter(Microsecond)
		tm.Stop()
		tm.ArmAfter(Microsecond) // fresh instance while a dead one queues
		e.Run()
	}
	// Warm up the pool and the wheel. Arming walks the clock forward and
	// the wheel sizes each slot's chunk list on first touch, so the
	// warm-up repeats the measured cycle often enough to visit every slot
	// residue the cycle's stride will ever land in.
	for i := 0; i < 256; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(100, cycle)
	if allocs > 0.5 {
		t.Fatalf("timer path allocates %.1f allocs/run, want 0", allocs)
	}
}
