package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := New()
	var got []int
	e.After(3*Microsecond, func() { got = append(got, 3) })
	e.After(1*Microsecond, func() { got = append(got, 1) })
	e.After(2*Microsecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != Time(3*Microsecond) {
		t.Fatalf("Now = %v, want 3µs", e.Now())
	}
}

func TestEngineTieBreakFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Time(5*Nanosecond), func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events reordered: %v", got)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.After(Microsecond, func() { fired = true })
	if !ev.Scheduled() {
		t.Fatal("fresh event not Scheduled")
	}
	e.Cancel(ev)
	e.Cancel(ev)      // double cancel is a no-op
	e.Cancel(Event{}) // zero handle is a no-op
	if !ev.Cancelled() || ev.Scheduled() {
		t.Fatal("event not marked cancelled before reaping")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// After the run the dead instance has been reaped: the handle is
	// stale and reports neither scheduled nor cancelled.
	if ev.Cancelled() || ev.Scheduled() {
		t.Fatal("reaped handle did not go stale")
	}
}

// Post-fire semantics (the old engine lied here: cancelling a fired event
// marked it cancelled). Now a fired instance is stale: Cancel is a no-op,
// Cancelled reports false, and — critically, because event storage is
// pooled — a stale Cancel must not kill an unrelated event that happens
// to reuse the same storage.
func TestEventPostFireSemantics(t *testing.T) {
	e := New()
	aFired := false
	a := e.After(Microsecond, func() { aFired = true })
	e.Run()
	if !aFired {
		t.Fatal("event did not fire")
	}
	if a.Cancelled() {
		t.Fatal("fired event reports Cancelled")
	}
	if a.Scheduled() {
		t.Fatal("fired event reports Scheduled")
	}
	e.Cancel(a) // no-op on a fired instance
	if a.Cancelled() {
		t.Fatal("post-fire Cancel marked the event cancelled")
	}

	// b reuses a's pooled storage; a stale cancel of a must not touch it.
	bFired := false
	b := e.After(Microsecond, func() { bFired = true })
	e.Cancel(a)
	if !b.Scheduled() {
		t.Fatal("stale Cancel killed an unrelated event")
	}
	e.Run()
	if !bFired {
		t.Fatal("recycled event did not fire")
	}
	_ = b
}

func TestEngineCancelOneOfMany(t *testing.T) {
	e := New()
	var got []int
	evs := make([]Event, 10)
	for i := 0; i < 10; i++ {
		i := i
		evs[i] = e.After(Duration(i+1)*Microsecond, func() { got = append(got, i) })
	}
	e.Cancel(evs[4])
	e.Cancel(evs[7])
	e.Run()
	if len(got) != 8 {
		t.Fatalf("fired %d events, want 8: %v", len(got), got)
	}
	for _, v := range got {
		if v == 4 || v == 7 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var got []int
	e.After(1*Microsecond, func() { got = append(got, 1) })
	e.After(5*Microsecond, func() { got = append(got, 5) })
	e.RunUntil(Time(3 * Microsecond))
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("got %v, want [1]", got)
	}
	if e.Now() != Time(3*Microsecond) {
		t.Fatalf("Now = %v after RunUntil, want 3µs", e.Now())
	}
	e.Run()
	if len(got) != 2 {
		t.Fatalf("remaining event did not fire: %v", got)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.After(Microsecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(0, func() {})
	})
	e.Run()
}

func TestNestedScheduling(t *testing.T) {
	// Events scheduled from inside callbacks at the current instant run
	// in the same pass, after already-queued same-instant events.
	e := New()
	var got []string
	e.After(0, func() {
		got = append(got, "a")
		e.After(0, func() { got = append(got, "c") })
	})
	e.After(0, func() { got = append(got, "b") })
	e.Run()
	if want := "abc"; got[0]+got[1]+got[2] != want {
		t.Fatalf("got %v, want a,b,c", got)
	}
}

func TestTimeFormatting(t *testing.T) {
	if s := (2500 * Nanosecond).String(); s != "2.5µs" {
		t.Errorf("2500ns = %q", s)
	}
	if s := (Duration(1500)).String(); s != "1ns+500ps" {
		t.Errorf("1500ps = %q", s)
	}
}

// Property: for any schedule of events, execution order is sorted by
// (time, insertion order).
func TestEngineOrderProperty(t *testing.T) {
	prop := func(delays []uint32) bool {
		e := New()
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, d := range delays {
			i := i
			at := Time(Duration(d%1_000_000) * Nanosecond)
			e.At(at, func() { fired = append(fired, rec{at, i}) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(a, b int) bool {
			if fired[a].at != fired[b].at {
				return fired[a].at < fired[b].at
			}
			return fired[a].seq < fired[b].seq
		})
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: random interleaving of schedules and cancellations never
// fires a cancelled event and fires every non-cancelled one.
func TestEngineCancelProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		fired := map[int]bool{}
		cancelled := map[int]bool{}
		evs := map[int]Event{}
		for i := 0; i < int(n); i++ {
			i := i
			evs[i] = e.After(Duration(rng.Intn(1000))*Nanosecond, func() { fired[i] = true })
		}
		for i := range evs {
			if rng.Intn(2) == 0 {
				e.Cancel(evs[i])
				cancelled[i] = true
			}
		}
		e.Run()
		for i := 0; i < int(n); i++ {
			if cancelled[i] && fired[i] {
				return false
			}
			if !cancelled[i] && !fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Duration(i%1000)*Nanosecond, func() {})
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
	b.ReportMetric(float64(e.Steps())/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkLoadSlot times the drain of one level-0 slot into the firing
// batch, refill included (a bulk copy into one spare chunk, or a chain of
// them past chunkLen): n entries whose at offsets within the tick are
// uniform, or all equal, so that only the comparator can order them (the
// permutation traffic of a large fabric starting in step). n = 14 is the
// 64-host web-search fabric's mean drained slot. The drain cycles through
// 16 slot contents so that branch prediction cannot learn one of them.
func BenchmarkLoadSlot(b *testing.B) {
	for _, n := range []int{3, 14, 32, 64, 512} {
		for _, shape := range []string{"uniform", "equal"} {
			rng := rand.New(rand.NewSource(int64(n)))
			var slots [16][]entry
			for s := range slots {
				for i := 0; i < n; i++ {
					at := Time(5 << tickBits)
					if shape == "uniform" {
						at += Time(rng.Int63n(1 << tickBits))
					}
					hi, lo := packKey(rng.Uint64(), rng.Uint32(), uint32(i))
					slots[s] = append(slots[s], entry{at: at, hi: hi, lo: lo})
				}
			}
			b.Run(fmt.Sprintf("n=%d/%s", n, shape), func(b *testing.B) {
				e := New()
				l := &e.levels[0]
				for i := 0; i < b.N; i++ {
					src := slots[i%len(slots)]
					for k := 0; k < n; k += chunkLen {
						c := e.newChunk()
						copy(c[:], src[k:])
						l.slot[5] = append(l.slot[5], c)
					}
					l.n[5] = uint32(n)
					l.occ[0] |= 1 << 5
					l.count += n
					e.loadSlot(5, 5)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
			})
		}
	}
}

// Steady-state scheduling must not allocate: nodes come from the free
// list and the heap's backing array has stabilized.
func TestEngineZeroAllocSteadyState(t *testing.T) {
	e := New()
	fn := func() {}
	// Warm the pool and the queue's backing storage. The timing wheel
	// lazily allocates each slot's chunk list on first touch, and the
	// round stride drifts through slot residues slowly, so the warm-up
	// repeats until every level-0 slot the loop can land in has capacity.
	for round := 0; round < 4096; round++ {
		for i := 0; i < 64; i++ {
			e.After(Duration(i)*Nanosecond, fn)
		}
		e.Run()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.After(Duration(i)*Nanosecond, fn)
		}
		e.Run()
	})
	if allocs > 0.5 {
		t.Fatalf("steady-state scheduling allocates %.1f allocs/run, want 0", allocs)
	}
}

// Lazy cancellation must not leak nodes: a cancel-heavy workload reuses
// the same pooled storage round after round.
func TestEngineCancelRecycles(t *testing.T) {
	e := New()
	fn := func() {}
	for round := 0; round < 3; round++ {
		evs := make([]Event, 0, 100)
		for i := 0; i < 100; i++ {
			evs = append(evs, e.After(Duration(i)*Nanosecond, fn))
		}
		for _, ev := range evs {
			e.Cancel(ev)
		}
		e.Run()
		if got := e.Pending(); got != 0 {
			t.Fatalf("round %d: %d entries left after Run", round, got)
		}
	}
	if len(e.free) < 100 {
		t.Fatalf("free list holds %d nodes, want >= 100", len(e.free))
	}
}

// Regression: draining a slot can land the wheel's position exactly on a
// window boundary (tick+1 ≡ 0 mod slots); the engine must still run that
// boundary's cascades before scanning the new window. Before the
// cascadedTo fix this input fired a level-1 resident a full rotation
// late (found by TestEngineOrderProperty, pinned here).
func TestWheelBoundaryLandingCascades(t *testing.T) {
	delays := []uint32{0x5c72448b, 0x5852fdcb, 0x861c942b, 0xc0442e72,
		0x9ed96cee, 0x8fbb6a70, 0xc6467379, 0x1809bb4a, 0x17ab982b,
		0xf8c53632, 0x513d65b7, 0xe9f7a49a, 0xfd83a9bd, 0x2af5f8a0,
		0x37f7b937, 0xc4ef69e6, 0x15bf5fd6, 0xf4d27cf, 0xaa53362b,
		0x8d0758a6, 0x66ae3f0, 0xe9526e5f, 0x34228c68, 0xa8415c6,
		0x8dc6ce59, 0x3f73358d, 0x126076a4, 0x37f025f2, 0xd192a4c6,
		0x6c3421d5, 0xac360f37, 0x3d78b7c2, 0xc69d69cc, 0x9c22e036,
		0x6c8f77c0, 0xfc92476, 0x2d2ffd45, 0x41c8e0eb, 0xabe73c5c,
		0xab005c16, 0xa7213199, 0x6bc8d579, 0xcbe6693, 0x44094fd1,
		0x805063a5, 0x47deb00b, 0x168433da, 0x9bef088c}
	e := New()
	type rec struct {
		at  Time
		seq int
	}
	var fired []rec
	for i, d := range delays {
		i := i
		at := Time(Duration(d%1_000_000) * Nanosecond)
		e.At(at, func() { fired = append(fired, rec{at, i}) })
	}
	e.Run()
	if len(fired) != len(delays) {
		t.Fatalf("fired %d of %d events", len(fired), len(delays))
	}
	if !sort.SliceIsSorted(fired, func(a, b int) bool {
		if fired[a].at != fired[b].at {
			return fired[a].at < fired[b].at
		}
		return fired[a].seq < fired[b].seq
	}) {
		t.Fatal("firing order violated: not by at, then by scheduling order")
	}
}

// The wheel keeps room for what is pending, not for each slot's busiest
// tick. A burst of 200 entries into each level-0 slot in turn, then one of
// 600 into each level-1 slot in turn (cascaded into a level-0 slot and
// drained there), running the engine dry between bursts, leaves room for
// one burst's chunks plus a part-filled one for the one slot holding it,
// however many slots the bursts have passed through. The batch and the
// overflow heap are not the wheel's: the batch is as large as the busiest
// tick drained, by append's rule.
func TestWheelRoomFollowsPending(t *testing.T) {
	e := New()
	fn := func() {}
	burst := func(tk int64, n int) {
		for i := 0; i < n; i++ {
			e.At(Time(tk<<tickBits+int64(i)), fn)
		}
		peak := e.Pending()
		e.Run()
		entries, _ := e.Capacity()
		room := entries - cap(e.batch) - cap(e.over)
		if bound := 64 * ((peak+63)/64 + 1); room > bound {
			t.Fatalf("after %d entries at tick %d the wheel has room for %d, want at most %d", n, tk, room, bound)
		}
	}
	for tk := int64(1); tk <= numSlots; tk++ { // level-0 slots 1 to 255, then 0
		burst(tk, 200)
	}
	for m := int64(1); m <= numSlots; m++ { // level-1 slot 3m mod 256: every one
		burst(3*m*numSlots, 600)
	}
}

// A replayed run — Reset, then the same script — allocates nothing: the
// wheel's chunks, the slots' chunk lists and the batch keep what the
// first run grew. The script is as uneven as the wheel sees: 10,000
// events in one tick and 3 in the next, zero-delay children merged into
// the live batch, entries exactly 255 and 256 ticks ahead (the last
// level-0 slot and the first level-1 one), level-1 cascades, and one
// event past the wheel horizon.
func TestWarmReplayAllocatesNothing(t *testing.T) {
	const tick = Duration(1) << tickBits
	e := New()
	fired := 0
	noop := func() { fired++ }
	child := func() { fired++; e.After(0, noop) }
	edge := func() { fired++; e.After(255*tick, noop); e.After(256*tick, noop) }
	script := func() int {
		fired = 0
		for i := 0; i < 10000; i++ {
			fn := noop
			if i%100 == 0 {
				fn = child
			}
			e.At(Time(5*tick+Duration(i)%tick), fn)
		}
		for i := 0; i < 3; i++ {
			e.At(Time(6*tick), edge)
		}
		for _, tk := range []Duration{300, 700, 701, 70000} { // levels 1 and 2
			for i := 0; i < 50; i++ {
				e.At(Time(tk*tick), edge)
			}
		}
		e.At(Time(Duration(horizonTicks+9)*tick), noop)
		e.Run()
		return fired
	}
	want := script()
	if want < 10000+100+3*3+200*3+1 {
		t.Fatalf("script fired %d events", want)
	}
	allocs := testing.AllocsPerRun(3, func() {
		e.Reset()
		if got := script(); got != want {
			t.Fatalf("replay fired %d events, first run %d", got, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm replay allocates %v times per run, want 0", allocs)
	}
}
