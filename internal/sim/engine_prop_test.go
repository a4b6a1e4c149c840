package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The wheel-vs-heap equivalence property: randomized schedule / cancel /
// re-arm scripts executed on both the timing-wheel engine and the
// retired binary heap (referenceQueue) must fire in identical order.
// Delays are drawn across every wheel regime — same instant, sub-tick,
// level 0/1/2, and beyond the overflow horizon — and a slice of events
// schedule same-instant or near-future follow-ups from inside their
// callbacks, exercising the mid-drain batch insertion path. A further
// slice of follow-ups travel the cross-engine path (ChildKey +
// InjectKey instead of At), which must produce byte-identical keys and
// therefore identical firing order.
func TestWheelMatchesReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runWheelVsHeapScript(t, seed)
		})
	}
}

// randomDelay spreads delays over the wheel's regimes.
func randomDelay(rng *rand.Rand) Duration {
	switch rng.Intn(6) {
	case 0:
		return 0 // same instant
	case 1:
		return Duration(rng.Int63n(8191)) // sub-tick (one wheel slot)
	case 2:
		return Duration(rng.Int63n(2_000)) * Nanosecond // level 0
	case 3:
		return Duration(rng.Int63n(500)) * Microsecond // level 1
	case 4:
		return Duration(rng.Int63n(130)) * Millisecond // level 2
	default:
		// Beyond the ~137 ms wheel horizon: overflow heap.
		return 140*Millisecond + Duration(rng.Int63n(300))*Millisecond
	}
}

func runWheelVsHeapScript(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const initial = 300

	type followup struct {
		d        Duration
		id       int
		injected bool // schedule via ChildKey+InjectKey instead of At
	}
	followups := map[int][]followup{}
	nextID := initial

	e := New()
	q := &referenceQueue{}
	evs := map[int]Event{}
	refCancelled := map[int]bool{}

	var lastFired refEntry
	fireCount := 0
	var mkCb func(id int) func()
	mkCb = func(id int) func() {
		return func() {
			lastFired = refEntry{at: e.Now(), id: id}
			fireCount++
			for _, f := range followups[id] {
				at := e.Now().Add(f.d)
				if f.injected {
					// The cross-engine scheduling path, exercised within
					// one engine: consume the child slot explicitly and
					// inject under the resulting key. Must be
					// indistinguishable from e.At(at, ...) — the reference
					// mirrors it with a plain schedule.
					cb := mkCb(f.id)
					evs[f.id] = e.InjectKey(e.ChildKey(at), func(any) { cb() }, nil)
				} else {
					evs[f.id] = e.At(at, mkCb(f.id))
				}
			}
		}
	}

	// Schedule the initial events identically on both sides.
	for id := 0; id < initial; id++ {
		d := randomDelay(rng)
		at := Time(d)
		evs[id] = e.At(at, mkCb(id))
		q.schedule(at, id)
		// A third of the events spawn follow-ups when they fire: same
		// instant or near future, landing in the tick being drained, the
		// current wheel windows, or (rarely) the overflow heap. A quarter
		// of those take the injection path.
		if rng.Intn(3) == 0 {
			n := 1 + rng.Intn(2)
			for k := 0; k < n; k++ {
				followups[id] = append(followups[id], followup{
					d: randomDelay(rng), id: nextID, injected: rng.Intn(4) == 0,
				})
				nextID++
			}
		}
	}
	// A batch of events scheduled under an explicit causal origin, as
	// scenario setup does for flow launches and probes: SetOrigin must
	// reset the context identically on both sides.
	e.SetOrigin(uint64(seed))
	q.setOrigin(uint64(seed))
	for j := 0; j < 20; j++ {
		d := randomDelay(rng)
		id := nextID
		nextID++
		evs[id] = e.At(Time(d), mkCb(id))
		q.schedule(Time(d), id)
	}
	// Cancel a slice of them; re-arm another slice (cancel + reschedule —
	// the queue-level shape of a timer re-arm to an earlier deadline).
	for id := 0; id < initial; id++ {
		switch rng.Intn(8) {
		case 0, 1:
			e.Cancel(evs[id])
			refCancelled[id] = true
		case 2:
			e.Cancel(evs[id])
			refCancelled[id] = true
			d := randomDelay(rng)
			rearmed := nextID
			nextID++
			evs[rearmed] = e.At(Time(d), mkCb(rearmed))
			q.schedule(Time(d), rearmed)
		}
	}

	// Lockstep drain: every live reference pop must match the engine's
	// next fired event in both identity and timestamp.
	for {
		ent, ok := q.pop()
		if !ok {
			break
		}
		if refCancelled[ent.id] {
			continue
		}
		// The reference has no callbacks: apply the popped event's
		// follow-up scheduling here, mirroring what the engine's callback
		// did when it fired.
		before := fireCount
		if !e.Step() {
			t.Fatalf("engine ran dry; reference still holds id=%d at=%v", ent.id, ent.at)
		}
		if fireCount != before+1 {
			t.Fatalf("engine Step fired %d events, want exactly 1", fireCount-before)
		}
		if lastFired.id != ent.id || lastFired.at != ent.at {
			t.Fatalf("order diverged: engine fired id=%d at=%v, reference expects id=%d at=%v",
				lastFired.id, lastFired.at, ent.id, ent.at)
		}
		for _, f := range followups[ent.id] {
			q.schedule(ent.at.Add(f.d), f.id)
		}
	}
	if e.Step() {
		t.Fatalf("reference ran dry but engine fired id=%d at=%v", lastFired.id, lastFired.at)
	}
}

// TestDenseSlotsMatchReferenceHeap is the lockstep property aimed at the
// drain of a crowded slot, which the script above reaches almost only at
// t = 0. Mid-run ticks hold 2, 16, 17, 63, 64, 65 and 200 entries, the
// sizes either side of the 64-entry sub-tick bucket bound and of the
// sort's insertion cut-off. Their at offsets sit on 128 ps bucket edges,
// one picosecond below them, anywhere in the tick, or exactly on an
// offset another entry took: ties from one parent (same phash and
// dsched, k decides), from parents firing at the same instant (dsched
// equal, phash decides) and from parents firing at different instants.
// The entries arrive by cascade from level 1 (scheduled at setup) and
// straight into level 0 (scheduled by spawners a tick or two ahead), a
// few are cancelled, and some schedule zero-delay and same-tick children
// into the batch while it fires.
func TestDenseSlotsMatchReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runDenseSlotScript(t, seed)
		})
	}
}

func runDenseSlotScript(t *testing.T, seed int64) {
	const tick = Time(1) << tickBits
	sizes := []int{2, 16, 17, 63, 64, 65, 200}
	rng := rand.New(rand.NewSource(seed))

	e := New()
	q := &referenceQueue{}
	nextID := 0
	cancelled := map[int]bool{}
	// children[id] are the delays, from id's firing instant, of the events
	// id schedules when it fires, in call order; childIDs names them.
	children := map[int][]Duration{}
	childIDs := map[int][]int{}
	// drained[tt] is the batch length when the first live event of target
	// tick tt fired: the size of the slot that drained.
	drained := map[Time]int{}
	lastFired := -1

	var cb func(id int) func()
	cb = func(id int) func() {
		return func() {
			lastFired = id
			if tt := e.Now() &^ (tick - 1); drained[tt] == 0 {
				drained[tt] = len(e.batch)
			}
			for i, d := range children[id] {
				e.At(e.Now().Add(d), cb(childIDs[id][i]))
			}
		}
	}
	newID := func() int { nextID++; return nextID - 1 }
	addChild := func(parent int, d Duration) int {
		id := newID()
		children[parent] = append(children[parent], d)
		childIDs[parent] = append(childIDs[parent], id)
		return id
	}
	schedule := func(at Time, id int) Event {
		q.schedule(at, id)
		return e.At(at, cb(id))
	}
	// offset draws an at offset within a tick: on a bucket edge, one
	// picosecond below one, one of the tick's three tie offsets, or
	// anywhere.
	offset := func(ties []Time) Time {
		switch rng.Intn(5) {
		case 0:
			return Time(rng.Intn(64)) * 128
		case 1:
			return Time(1+rng.Intn(64))*128 - 1
		case 2:
			return ties[rng.Intn(len(ties))]
		default:
			return Time(rng.Int63n(int64(tick)))
		}
	}
	// sameTick gives one entry in six a zero-delay child, and half of
	// those a second child later in the same tick: insertions into the
	// batch while it fires.
	sameTick := func(id int, at Time) {
		if rng.Intn(6) != 0 {
			return
		}
		addChild(id, 0)
		if end := at | (tick - 1); rng.Intn(2) == 0 && end > at {
			addChild(id, Duration(rng.Int63n(int64(end-at))))
		}
	}

	var targets []Time
	for si, n := range sizes {
		tt := Time(1000+40*si) * tick
		targets = append(targets, tt)
		ties := []Time{Time(rng.Intn(64)) * 128, Time(rng.Int63n(int64(tick))), tick - 1}
		// Two spawners fire at one instant two ticks ahead, a third a tick
		// ahead; the rest of the tick's entries are setup roots.
		e.SetOrigin(uint64(si))
		q.setOrigin(uint64(si))
		spawnAt := []Time{tt - 2*tick + 100, tt - 2*tick + 100, tt - tick + 5000}
		spawners := []int{newID(), newID(), newID()}
		for i, id := range spawners {
			schedule(spawnAt[i], id)
		}
		for i := 0; i < n; i++ {
			at := tt + offset(ties)
			if src := rng.Intn(4); src < len(spawners) {
				sameTick(addChild(spawners[src], at.Sub(spawnAt[src])), at)
				continue
			}
			id := newID()
			ev := schedule(at, id)
			sameTick(id, at)
			if rng.Intn(10) == 0 {
				e.Cancel(ev)
				cancelled[id] = true
			}
		}
	}
	// Background events keep the wheel turning between the targets; none
	// lands in a target tick.
	for i := 0; i < 300; i++ {
		if at := Time(rng.Int63n(int64(1300 * tick))); !slices.Contains(targets, at&^(tick-1)) {
			schedule(at, newID())
		}
	}

	for {
		ent, ok := q.pop()
		if !ok {
			break
		}
		if cancelled[ent.id] {
			continue
		}
		if !e.Step() {
			t.Fatalf("engine ran dry; reference still holds id=%d at=%v", ent.id, ent.at)
		}
		if lastFired != ent.id || e.Now() != ent.at {
			t.Fatalf("order diverged: engine fired id=%d at=%v, reference expects id=%d at=%v",
				lastFired, e.Now(), ent.id, ent.at)
		}
		for i, d := range children[ent.id] {
			q.schedule(ent.at.Add(d), childIDs[ent.id][i])
		}
	}
	if e.Step() {
		t.Fatalf("reference ran dry but engine fired id=%d at=%v", lastFired, e.Now())
	}
	for si, tt := range targets {
		if got := drained[tt]; got != sizes[si] {
			t.Errorf("tick %d drained %d entries, want %d", tt/tick, got, sizes[si])
		}
	}
}

// fireRec is one fired event tagged with its canonical key.
type fireRec struct {
	key Key
	id  int
	at  Time
}

// TestCrossEngineInjectionMatchesSerial splits a two-region workload
// across two engines and checks that merging their fire logs by
// canonical key reproduces the serial single-engine firing order
// exactly — the core mechanism the partitioned runtime (internal/psim)
// relies on. Region A events schedule deliveries into region B at a
// fixed positive latency; serially the delivery is a plain At, split it
// is ChildKey on A's engine shipped to an InjectKey on B's. Both runs
// seed their roots through SetOrigin with the same entity keys, so
// every causal hash — and therefore the merged order — must coincide.
func TestCrossEngineInjectionMatchesSerial(t *testing.T) {
	const (
		rootsA  = 40
		rootsB  = 40
		latency = 3 * Microsecond
		originA = uint64(1) << 32
		originB = uint64(2) << 32
	)

	// build wires the workload onto engA (region A) and engB (region B);
	// serially both are the same engine and send posts with At. send is
	// called from inside an A callback to deliver cb into region B at
	// time at.
	build := func(engA, engB *Engine, log *[]fireRec, send func(at Time, id int)) {
		var fire func(eng *Engine, id, depth int, isA bool) func()
		fire = func(eng *Engine, id, depth int, isA bool) func() {
			return func() {
				*log = append(*log, fireRec{key: eng.ExecKey(), id: id, at: eng.Now()})
				if depth >= 3 {
					return
				}
				// Deterministic fan-out derived from id: local follow-ups
				// plus, for region-A events, a cross-region delivery.
				if id%2 == 0 {
					eng.At(eng.Now().Add(Duration(id%7)*100*Nanosecond), fire(eng, id*10+1, depth+1, isA))
				}
				if id%3 == 0 && isA {
					send(eng.Now().Add(latency), id*10+2)
				}
			}
		}
		for i := 0; i < rootsA; i++ {
			engA.SetOrigin(originA + uint64(i))
			engA.At(Time(i)*Time(500*Nanosecond), fire(engA, 2+i*4, 0, true))
		}
		for i := 0; i < rootsB; i++ {
			engB.SetOrigin(originB + uint64(i))
			engB.At(Time(i)*Time(700*Nanosecond), fire(engB, 3+i*4, 0, false))
		}
	}

	// Serial: one engine, deliveries are plain At calls in the same
	// causal slot.
	var serialLog []fireRec
	var serial *Engine
	var serialFire func(id int) func()
	serialFire = func(id int) func() {
		return func() {
			serialLog = append(serialLog, fireRec{key: serial.ExecKey(), id: id, at: serial.Now()})
		}
	}
	serial = New()
	build(serial, serial, &serialLog, func(at Time, id int) {
		serial.At(at, serialFire(id))
	})
	serial.Run()

	// Split: deliveries consume a child slot on A and inject into B.
	// A only sends to B, so run A to completion first, then deliver the
	// collected messages in creation order and run B — a degenerate but
	// valid conservative schedule for a one-directional cut.
	engA, engB := New(), New()
	var logA, logB []fireRec
	type msg struct {
		key Key
		id  int
	}
	var mail []msg
	var splitFire func(id int) func()
	splitFire = func(id int) func() {
		return func() {
			logB = append(logB, fireRec{key: engB.ExecKey(), id: id, at: engB.Now()})
		}
	}
	build(engA, engB, &logA, func(at Time, id int) {
		mail = append(mail, msg{key: engA.ChildKey(at), id: id})
	})
	engA.Run()
	for _, m := range mail {
		m := m
		engB.InjectKey(m.key, func(any) { splitFire(m.id)() }, nil)
	}
	engB.Run()

	// Merge by canonical key and compare with the serial order.
	merged := append(append([]fireRec{}, logA...), logB...)
	slices.SortStableFunc(merged, func(a, b fireRec) int {
		if a.key.Less(b.key) {
			return -1
		}
		if b.key.Less(a.key) {
			return 1
		}
		return 0
	})
	if len(merged) != len(serialLog) {
		t.Fatalf("split run fired %d events, serial fired %d", len(merged), len(serialLog))
	}
	for i := range merged {
		if merged[i].id != serialLog[i].id || merged[i].at != serialLog[i].at ||
			merged[i].key != serialLog[i].key {
			t.Fatalf("order diverged at %d: split (id=%d at=%v key=%+v) vs serial (id=%d at=%v key=%+v)",
				i, merged[i].id, merged[i].at, merged[i].key,
				serialLog[i].id, serialLog[i].at, serialLog[i].key)
		}
	}
}
