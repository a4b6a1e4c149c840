package sim

import "testing"

// TestStepCapTrips proves the hard executed-events cap freezes the
// engine in front of the (cap+1)-th event: clock unmoved, entry still
// pending, Step/RunUntil refusing to execute anything further, and
// Reset restoring a healthy engine.
func TestStepCapTrips(t *testing.T) {
	e := New()
	fired := 0
	for i := 0; i < 10; i++ {
		e.At(Time(i*1000), func() { fired++ })
	}
	e.SetLimits(4, 0)
	e.RunUntil(Time(1_000_000))

	if fired != 4 {
		t.Fatalf("fired %d events, want 4", fired)
	}
	tr := e.Tripped()
	if tr == nil || tr.Reason != TripSteps || tr.Reason.String() != "step-cap" {
		t.Fatalf("Tripped() = %+v, want TripSteps (step-cap)", tr)
	}
	if tr.At != 4000 || tr.Steps != 4 {
		t.Fatalf("trip watermark = at %v steps %d, want at 4000 steps 4", tr.At, tr.Steps)
	}
	if e.Now() != 3000 {
		t.Fatalf("clock advanced to %v on trip, want 3000 (last fired instant)", e.Now())
	}
	if e.Pending() != 6 {
		t.Fatalf("pending = %d after trip, want 6 (refused entry stays queued)", e.Pending())
	}
	if e.Step() {
		t.Fatal("Step executed an event on a tripped engine")
	}
	e.RunUntilKey(KeyAtEnd(Time(1_000_000)))
	if fired != 4 {
		t.Fatalf("RunUntilKey fired events on a tripped engine (fired=%d)", fired)
	}

	e.Reset()
	if e.Tripped() != nil {
		t.Fatal("Reset did not clear the trip")
	}
	done := false
	e.At(0, func() { done = true })
	e.Run()
	if !done {
		t.Fatal("reset engine did not execute a fresh event")
	}
}

// TestLivelockTrips proves the same-instant run detector stops a
// zero-delay self-rescheduling cycle with the stuck instant in the
// trip, and that a healthy workload with long (sub-threshold)
// same-instant bursts is untouched.
func TestLivelockTrips(t *testing.T) {
	e := New()
	var spin func()
	spin = func() { e.After(0, spin) }
	e.At(500, spin)
	e.SetLimits(0, 1000)
	e.RunUntil(Time(1_000_000))

	tr := e.Tripped()
	if tr == nil || tr.Reason != TripLivelock || tr.Reason.String() != "livelock" {
		t.Fatalf("Tripped() = %+v, want TripLivelock (livelock)", tr)
	}
	if tr.At != 500 {
		t.Fatalf("stuck instant = %v, want 500", tr.At)
	}
	if tr.SameRun != 1000 {
		t.Fatalf("same-instant run = %d, want 1000", tr.SameRun)
	}
	if e.Now() != 500 {
		t.Fatalf("clock = %v after livelock trip, want 500", e.Now())
	}

	// A burst below the threshold must pass: 999 same-instant events,
	// then the clock moves and another 999 fire at the next instant.
	e.Reset()
	e.SetLimits(0, 1000)
	fired := 0
	for i := 0; i < 999; i++ {
		e.At(100, func() { fired++ })
		e.At(200, func() { fired++ })
	}
	e.Run()
	if e.Tripped() != nil {
		t.Fatalf("sub-threshold bursts tripped the detector: %+v", e.Tripped())
	}
	if fired != 2*999 {
		t.Fatalf("fired %d, want %d", fired, 2*999)
	}
}

// TestTripReproducible runs the same over-cap workload twice and
// requires identical trip watermarks — the determinism contract the
// guard package's byte-reproducible budget errors stand on.
func TestTripReproducible(t *testing.T) {
	run := func() Trip {
		e := New()
		var chain func()
		n := 0
		chain = func() {
			n++
			e.After(Duration(1000+n%7), chain)
		}
		e.At(0, chain)
		e.SetLimits(2500, 0)
		e.RunUntil(Time(1 << 40))
		tr := e.Tripped()
		if tr == nil {
			t.Fatal("workload did not trip")
		}
		return *tr
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("trip not reproducible:\n  first  %+v\n  second %+v", a, b)
	}
}
