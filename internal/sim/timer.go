package sim

// Timer is a reschedulable, pre-bound callback: the callback closure is
// captured once at construction, and arming, deferring, or stopping the
// timer allocates nothing in steady state. It is the tool for every
// "schedule-per-packet" or "reset-per-ACK" pattern that would otherwise
// heap-allocate a fresh closure and event each time (link serializers,
// transport pacing and RTO, HOMA resend, DCQCN rate timers).
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
// Timers are not safe for concurrent use, like the Engine they run on.
type Timer struct {
	eng   *Engine
	fn    func() // user callback
	fire  func() // pre-bound onFire, allocated once
	ev    Event  // underlying queue instance, if any
	at    Time   // logical deadline while armed
	qat   Time   // when the queued instance fires (≤ at after lazy extension)
	armed bool
}

// NewTimer returns an unarmed timer that will run fn when it expires.
// The two closure allocations here (fn's capture and the bound onFire)
// are the timer's only allocations, ever.
func (e *Engine) NewTimer(fn func()) *Timer {
	t := &Timer{eng: e, fn: fn}
	t.fire = t.onFire
	return t
}

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
	t.ev = t.eng.At(at, t.fire)
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
		t.ev = t.eng.At(t.at, t.fire)
		t.qat = t.at
		return
	}
	t.armed = false
	t.fn()
}
