package sim

// Timer is a reschedulable callback that its owner embeds as a field:
// Bind ties it once to an engine, a package-level func(any) and an
// argument (typically a pointer to the owner), and the timer fires
// through AtCall, so neither binding, arming, deferring nor stopping it
// allocates. It is the tool for every "schedule-per-packet" or
// "reset-per-ACK" pattern that would otherwise heap-allocate a fresh
// closure and event each time (link serializers, transport pacing and
// RTO, HOMA resend, DCQCN rate timers). NewTimer is the standalone form
// for callers that hold a func(): the same type, bound to it.
//
// A Timer pushes deadline extensions lazily: re-arming an armed timer for
// a *later* instant just records the new deadline — the already-queued
// event fires early, notices the extension, and re-queues itself for the
// remainder. A retransmission timeout that is pushed back on every ACK
// therefore costs two field writes per ACK instead of a queue delete and
// re-insert.
//
// The laziness is deliberately wheel-granularity-agnostic: an extension
// never touches the queued entry, so it cannot re-bucket, cascade, or
// reorder anything regardless of how far the deadline moves or which
// wheel level holds the entry, and the eventual early fire re-queues at
// the exact extended deadline — timers keep picosecond-precise firing
// times even though wheel slots are ~8 ns wide. Re-arming *earlier* must
// replace the queued instance (a lazy early move would run the callback
// at the stale instant), which stays a cancel plus an O(1) wheel insert.
//
// A Timer must not be copied once bound: the queued event points at it.
// Timers are not safe for concurrent use, like the Engine they run on.
type Timer struct {
	eng   *Engine
	fn    func(any) // callback, run as fn(arg)
	arg   any
	ev    Event // underlying queue instance, if any
	at    Time  // logical deadline while armed
	qat   Time  // when the queued instance fires (≤ at after lazy extension)
	armed bool
}

// Bind sets the engine the timer runs on and the callback it runs,
// fn(arg). Bind an unarmed timer only; a pointer arg allocates nothing.
func (t *Timer) Bind(e *Engine, fn func(any), arg any) {
	t.eng, t.fn, t.arg = e, fn, arg
}

// NewTimer returns an unarmed timer that will run fn when it expires:
// one allocation, the Timer (fn's own capture is the caller's).
func (e *Engine) NewTimer(fn func()) *Timer {
	t := &Timer{}
	t.Bind(e, callFunc, fn)
	return t
}

// callFunc is the callback of At's events and NewTimer's timers: a func
// value is one pointer, so it rides in the argument without allocating.
func callFunc(arg any) { arg.(func())() }

// fireTimer is the engine callback of every timer's queued instance.
func fireTimer(arg any) { arg.(*Timer).onFire() }

// Armed reports whether the timer is set to fire.
func (t *Timer) Armed() bool { return t.armed }

// Arm schedules the callback for absolute time at, replacing any earlier
// deadline. Arming for the past fires at the current instant, after the
// callbacks already queued there.
func (t *Timer) Arm(at Time) {
	if at < t.eng.now {
		at = t.eng.now
	}
	t.at = at
	t.armed = true
	if t.ev.Scheduled() {
		if t.qat <= at {
			return // queued instance fires on/before the deadline; defer lazily
		}
		t.eng.Cancel(t.ev) // need to fire earlier than what is queued
	}
	t.ev = t.eng.AtCall(at, fireTimer, t)
	t.qat = at
}

// ArmAfter schedules the callback d from now.
func (t *Timer) ArmAfter(d Duration) {
	if d < 0 {
		d = 0
	}
	t.Arm(t.eng.now.Add(d))
}

// Stop disarms the timer. The callback will not run until the timer is
// armed again. Stopping an unarmed timer is a no-op.
func (t *Timer) Stop() {
	t.armed = false
	t.eng.Cancel(t.ev)
	t.ev = Event{}
}

// onFire runs when the queued instance expires: either the logical
// deadline was extended past it (re-queue for the remainder) or the timer
// is genuinely due.
func (t *Timer) onFire() {
	t.ev = Event{}
	if !t.armed {
		return
	}
	if t.at > t.eng.now {
		t.ev = t.eng.AtCall(t.at, fireTimer, t)
		t.qat = t.at
		return
	}
	t.armed = false
	t.fn(t.arg)
}
