package sim

import (
	"math/bits"
	"slices"
)

// node is the engine-owned storage behind a scheduled event. Nodes are
// recycled through a free list: when an event fires, or a cancelled event
// reaches the firing batch and is skipped, its node's generation is
// bumped and the node returns to the pool. Handles (Event values) carry
// the generation they were issued with, so a handle to a recycled node
// goes stale instead of aliasing whatever the node holds next.
type node struct {
	fn        func(any) // run as fn(arg); At's fn rides in arg (callFunc)
	arg       any
	gen       uint64
	cancelled bool
}

// Event is a handle to one scheduled event instance. It is a small value,
// cheap to copy and compare; the zero Event refers to nothing and is safe
// to Cancel or query.
//
// Lifecycle semantics (the fine print of the pooled engine):
//
//   - Scheduled() is true from At/After until the instance fires or is
//     cancelled.
//   - Cancelled() is true from Cancel until the engine reaps the dead
//     instance (lazily, when its slot is drained for firing).
//   - Once an instance has fired or been reaped the handle is stale:
//     Scheduled and Cancelled both report false, and Cancel is a no-op.
//     In particular, cancelling an already-fired event does NOT mark it
//     cancelled — post-fire Cancel has no effect of any kind.
//
// Code that needs a long-lived, re-armable callback should use Timer,
// which tracks its own armed state exactly and never goes stale.
type Event struct {
	n   *node
	gen uint64
}

// Scheduled reports whether the event instance is still pending.
func (ev Event) Scheduled() bool {
	return ev.n != nil && ev.n.gen == ev.gen && !ev.n.cancelled
}

// Cancelled reports whether this instance was cancelled and has not yet
// been reaped. Stale handles (fired or reaped instances) report false.
func (ev Event) Cancelled() bool {
	return ev.n != nil && ev.n.gen == ev.gen && ev.n.cancelled
}

// entry is one element of the event queue. Entries are stored by value in
// wheel slots, the firing batch, and the overflow heap, so ordering
// compares the canonical key (at, dsched, phash, k) without chasing
// pointers.
//
// The key encodes the event's position in the causal tree instead of a
// global sequence number:
//
//   - dsched is the (saturated) distance from the scheduling instant to
//     the firing instant. Ordering same-timestamp events by *earlier
//     scheduling first* (larger dsched first) preserves the FIFO flavor
//     of the old (at, seq) order — an event scheduled earlier still fires
//     earlier — without referencing global allocation order.
//   - phash is the causal-path hash of the scheduling parent (the hash of
//     the event whose callback scheduled this one, or an origin hash for
//     events scheduled outside any callback).
//   - k is the child index: the how-many-th schedule call the parent had
//     issued. Ties within one parent keep exact program order.
//
// Every component is a pure function of the causal tree, so the total
// order is identical no matter which engine — or how many engines — the
// tree's branches execute on. That invariance is what lets the
// partitioned runtime (internal/psim) reproduce the serial engine's
// firing order byte-for-byte at any partition count.
//
// Storage packs the 128-bit tail of the key — the tuple
// (^dsched, phash, k), 32+64+32 bits — into two uint64 words so the
// comparator on the slot-sort hot path is three unsigned word compares
// instead of four field branches. ^dsched leads because the canonical
// order ranks larger dsched first; lexicographic (hi, lo) then equals
// (dsched DESC, phash ASC, k ASC) exactly. packKey/unpack* are the only
// places that know the layout.
type entry struct {
	at Time
	hi uint64 // ^dsched(32) ++ phash[63:32]
	lo uint64 // phash[31:0] ++ k(32)
	n  *node
}

// packKey packs (phash, dsched, k) into the entry key words.
func packKey(phash uint64, dsched, k uint32) (hi, lo uint64) {
	return uint64(^dsched)<<32 | phash>>32, phash<<32 | uint64(k)
}

func (ent entry) phash() uint64  { return ent.hi<<32 | ent.lo>>32 }
func (ent entry) dsched() uint32 { return ^uint32(ent.hi >> 32) }
func (ent entry) k() uint32      { return uint32(ent.lo) }

// The event queue is a hierarchical timing wheel (Varghese & Lauck; the
// scheduler family production discrete-event simulators such as NS-2 use
// for exactly this workload): network events are overwhelmingly
// near-future and bounded-horizon — serialization delays, propagation,
// pacing ticks, RTOs — so bucketing by time makes schedule and fire O(1)
// where a binary heap pays O(log n) pointer-chasing sifts with 10⁴–10⁵
// events pending.
//
// Layout: one tick is 2^tickBits ps (8.192 ns — finer than a 1048-byte
// serialization at 100 Gbps, so consecutive packet events land in
// distinct slots); each of the numLevels levels has numSlots slots
// covering numSlots^level ticks per slot. Level 0 spans ~2.1 µs (covers
// serialization and edge propagation), level 1 ~537 µs (RTTs, pacing,
// sampling periods), level 2 ~137 ms (RTOs, failure schedules). Events
// beyond the wheel horizon wait in a small canonically-ordered overflow
// heap and are pulled in as the wheel turns.
//
// Storage: a slot is a list of chunkLen-entry chunks from one engine-wide
// LIFO spare list, handed back as soon as the slot drains or cascades. A
// chunk is in exactly one place: one slot's list or the spare list. So the
// wheel keeps room for what is pending, plus a part-filled chunk per
// non-empty slot, not for every slot's own busiest tick.
//
// Determinism: events fire in the canonical causal order (at, dsched,
// phash, k) — see entry. A level-0 slot is drained as a whole into the
// firing batch and put in that order there (loadSlot: sub-tick buckets,
// then the comparator on what shares a bucket) — entries within a tick
// fire in precise canonical order, not arrival order — and cascades only
// re-bucket entries into finer levels, never across an undrained earlier
// tick. The property tests in engine_prop_test.go run randomized
// schedule/cancel/re-arm scripts, and crowded mid-run ticks, against a
// reference heap (referenceQueue) carrying the same key and require
// identical firing orders.
const (
	tickBits  = 13           // one wheel tick = 8.192 ns
	subShift  = tickBits - 6 // 64 sub-tick buckets of 128 ps (loadSlot)
	levelBits = 8            // slots per level
	numSlots  = 1 << levelBits
	slotMask  = numSlots - 1
	numLevels = 3
	// horizonTicks spans the whole wheel; farther events overflow.
	horizonTicks = int64(1) << (numLevels * levelBits)
)

// chunkLen is the entries a wheel chunk holds: loadSlot's 64-entry bucket
// bound, so a slot that fits one chunk drains in place. A chunk is 2 KiB,
// one allocator size class.
const chunkLen = 64

type chunk [chunkLen]entry

// wheelLevel is one ring of slots plus an occupancy bitmap so the scan
// for the next pending tick skips empty slots a word at a time. Slot idx
// holds n[idx] entries, filling slot[idx]'s chunks in order.
type wheelLevel struct {
	slot  [numSlots][]*chunk
	n     [numSlots]uint32
	occ   [numSlots / 64]uint64
	count int
}

// add appends ent to slot idx of level l, taking a spare chunk when the
// slot's last one is full.
func (e *Engine) add(l *wheelLevel, idx int, ent entry) {
	n := l.n[idx]
	if n%chunkLen == 0 {
		l.slot[idx] = append(l.slot[idx], e.newChunk())
	}
	l.slot[idx][n/chunkLen][n%chunkLen] = ent
	l.n[idx] = n + 1
	l.occ[idx>>6] |= 1 << (idx & 63)
	l.count++
}

// newChunk pops the spare list, or allocates when it is empty.
func (e *Engine) newChunk() *chunk {
	if k := len(e.spare); k > 0 {
		c := e.spare[k-1]
		e.spare = e.spare[:k-1]
		return c
	}
	return new(chunk)
}

// scan returns the first occupied slot index ≥ from, or -1.
func (l *wheelLevel) scan(from int) int {
	w := from >> 6
	word := l.occ[w] &^ (1<<(from&63) - 1)
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w == len(l.occ) {
			return -1
		}
		word = l.occ[w]
	}
}

// take removes slot idx's entries from the level's count and occupancy
// and returns its chunks and entry count. The chunks stay in the slot's
// list until release hands them back.
func (l *wheelLevel) take(idx int) ([]*chunk, int) {
	n := int(l.n[idx])
	l.n[idx] = 0
	l.occ[idx>>6] &^= 1 << (idx & 63)
	l.count -= n
	return l.slot[idx], n
}

// release moves a taken slot's chunks to the spare list. The slot keeps
// its emptied pointer list, so a warmed wheel schedules without
// allocating.
func (e *Engine) release(l *wheelLevel, idx int) {
	cs := l.slot[idx]
	for i, c := range cs {
		e.spare = append(e.spare, c)
		cs[i] = nil
	}
	l.slot[idx] = cs[:0]
}

// Engine is a discrete-event scheduler. The zero value is ready to use.
//
// All callbacks run on the goroutine that calls Run/RunUntil/Step; the
// Engine itself is not safe for concurrent use, matching the deterministic
// single-threaded execution model described in the package comment.
//
// The engine allocates nothing per event in steady state: event nodes are
// pooled, cancellation is lazy (dead entries are skipped when their slot
// drains, not removed), and the queue is a hierarchical timing wheel of
// value entries with batched same-tick firing.
type Engine struct {
	now    Time
	nSteps uint64

	// Causal scheduling context: curHash identifies the event whose
	// callback is currently running (or the origin set by SetOrigin), and
	// childIdx counts the schedule calls it has issued so far. Together
	// they stamp each new entry's (phash, k) — see entry.
	curHash  uint64
	childIdx uint32
	// Exec key of the entry being fired (for ExecKey), in the packed
	// entry layout, so external accumulators (flow records) can tag data
	// with the canonical position of the event that produced it.
	execHi uint64
	execLo uint64

	// curTick is the wheel's drain position: every tick below it has been
	// emptied into the firing batch. Entries scheduled into an
	// already-drained tick (always the one being fired — scheduling in
	// the past panics) are merged into the batch directly.
	curTick int64
	// cascadedTo is the highest window boundary whose cascades have run.
	// Draining a slot can land curTick exactly on a boundary without
	// passing through the boundary-step branch; advance compares the two
	// so no boundary's cascade is ever skipped.
	cascadedTo int64
	levels     [numLevels]wheelLevel
	spare      []*chunk // LIFO list of chunks no slot holds
	over       []entry  // overflow min-heap in canonical order

	// batch holds the tick being fired, in canonical order; bi is the
	// cursor of the next entry to fire. Run touches no other queue state
	// between batch entries — same-tick firing is one bounds check and an
	// index increment per event.
	batch []entry
	bi    int

	pending int // entries anywhere in the queue, incl. cancelled unreaped
	free    []*node

	// In-loop supervision state (see limit.go): lastAt/sameRun track the
	// consecutive same-instant run for livelock detection, stopSteps is
	// the hard executed-events cap (0 = off), maxSame the livelock
	// threshold (0 = lazily initialised to DefaultMaxSameInstant), and
	// trip freezes the engine once a limit is hit.
	lastAt    Time
	sameRun   uint64
	stopSteps uint64
	maxSame   uint64
	trip      *Trip
}

// New returns a fresh engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events executed so far (useful for
// reporting simulator throughput in benchmarks).
func (e *Engine) Steps() uint64 { return e.nSteps }

// Capacity reports what the engine keeps across Reset: how many entries
// its wheel chunks (in slots or spare), firing batch and overflow heap
// have room for, and how many event nodes it owns, free or scheduled. A
// run replayed on a Reset engine leaves both where the first run put them.
func (e *Engine) Capacity() (entries, nodes int) {
	chunks := len(e.spare)
	for li := range e.levels {
		for _, cs := range e.levels[li].slot {
			chunks += len(cs)
		}
	}
	return chunks*chunkLen + cap(e.batch) + cap(e.over), len(e.free) + e.pending
}

// At schedules fn to run at absolute time t. Scheduling in the past
// (t < Now) panics: it always indicates a model bug, and silently
// reordering time would destroy determinism. It is AtCall with fn as
// the argument of callFunc.
func (e *Engine) At(t Time, fn func()) Event { return e.AtCall(t, callFunc, fn) }

// AtCall schedules fn(arg) at absolute time t, the one way an event is
// scheduled. For per-packet work the callback is a long-lived
// package-level function and the per-event payload rides in arg, so
// scheduling allocates nothing (a pointer in an interface does not
// escape).
func (e *Engine) AtCall(t Time, fn func(any), arg any) Event {
	n := e.take(t)
	n.fn = fn
	n.arg = arg
	e.pending++
	hi, lo := packKey(e.curHash, satDelta(t, e.now), e.childIdx)
	e.place(entry{at: t, hi: hi, lo: lo, n: n})
	e.childIdx++
	return Event{n: n, gen: n.gen}
}

// take pops a node from the free list (or allocates one) for an event at
// time t, panicking on past scheduling.
func (e *Engine) take(t Time) *node {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	if k := len(e.free); k > 0 {
		n := e.free[k-1]
		e.free[k-1] = nil
		e.free = e.free[:k-1]
		return n
	}
	return &node{}
}

// After schedules fn to run d from now. A non-positive d fires at the
// current instant, after all callbacks already queued for this instant.
func (e *Engine) After(d Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// Cancel prevents ev from firing. Cancellation is lazy: the instance is
// marked dead and skipped (and its node recycled) when its slot drains
// into the firing batch. Cancelling the zero Event, a stale handle, or an
// already-cancelled instance is a no-op, so callers can unconditionally
// cancel timers they may or may not hold.
func (e *Engine) Cancel(ev Event) {
	if ev.n == nil || ev.n.gen != ev.gen {
		return
	}
	ev.n.cancelled = true
}

// reap recycles a node whose queue entry has been consumed.
func (e *Engine) reap(n *node) {
	n.fn = nil
	n.arg = nil
	n.cancelled = false
	n.gen++
	e.free = append(e.free, n)
}

// place buckets an entry by its distance from the drain position. It
// does not touch the pending count, so cascades and refills move entries
// between structures through the same path.
func (e *Engine) place(ent entry) {
	tk := int64(ent.at) >> tickBits
	delta := tk - e.curTick
	switch {
	case delta < 0:
		// The tick being fired right now (at ≥ now rules out anything
		// older): merge into the batch at its canonical position.
		e.batchInsert(ent)
	case delta < 1<<levelBits:
		e.add(&e.levels[0], int(tk)&slotMask, ent)
	case delta < 1<<(2*levelBits):
		e.add(&e.levels[1], int(tk>>levelBits)&slotMask, ent)
	case delta < horizonTicks:
		e.add(&e.levels[2], int(tk>>(2*levelBits))&slotMask, ent)
	default:
		e.overPush(ent)
	}
}

// batchInsert merges a same-tick entry into the live firing batch,
// keeping it sorted by the canonical key. Scheduling cannot target
// anything before the cursor (at ≥ now), so fired entries never move;
// an entry keying before the cursor position (a zero-delay child that
// the canonical order ranks ahead of already-fired siblings) is clamped
// to fire next, which matches the serial reference queue exactly —
// events that already fired are in the past regardless of key.
func (e *Engine) batchInsert(ent entry) {
	lo, hi := e.bi, len(e.batch)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cmpEntry(e.batch[mid], ent) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	e.batch = append(e.batch, entry{})
	copy(e.batch[lo+1:], e.batch[lo:])
	e.batch[lo] = ent
}

// cmpEntry is THE canonical total order (at ASC, dsched DESC, phash ASC,
// k ASC): the batch sort, the overflow heap (via entry.less), and the
// reference-heap property test all rank entries through it, so the
// determinism argument has a single comparator to audit. The packed key
// words make the descending-dsched / ascending-(phash, k) tail two plain
// unsigned compares — see entry and packKey for the layout proof.
func cmpEntry(a, b entry) int {
	switch {
	case a.at != b.at:
		if a.at < b.at {
			return -1
		}
		return 1
	case a.hi != b.hi:
		if a.hi < b.hi {
			return -1
		}
		return 1
	case a.lo != b.lo:
		if a.lo < b.lo {
			return -1
		}
		return 1
	}
	return 0
}

// wheelCount reports the entries held by the wheel levels (excluding the
// batch and the overflow heap).
func (e *Engine) wheelCount() int {
	return e.levels[0].count + e.levels[1].count + e.levels[2].count
}

// advance loads the next pending tick into the firing batch, cascading
// coarser levels and refilling from the overflow heap as the wheel
// turns. It returns false when nothing is pending anywhere.
func (e *Engine) advance() bool {
	if e.bi < len(e.batch) {
		return true
	}
	e.batch = e.batch[:0]
	e.bi = 0
	for {
		// Draining a slot can advance curTick exactly onto a window
		// boundary; run that boundary's cascades before trusting the
		// level-0 scan for the new window.
		if b := e.curTick &^ int64(slotMask); b > e.cascadedTo {
			e.runCascades(b)
		}
		if e.levels[0].count > 0 {
			from := int(e.curTick) & slotMask
			if j := e.levels[0].scan(from); j >= 0 {
				e.loadSlot(j, e.curTick+int64(j-from))
				return true
			}
		}
		if e.wheelCount() == 0 {
			// Only the overflow heap holds events: jump the wheel to its
			// earliest tick and pull the next horizon in. The skipped
			// boundaries had nothing to cascade — mark them done.
			if len(e.over) == 0 {
				return false
			}
			if tk := int64(e.over[0].at) >> tickBits; tk > e.curTick {
				e.curTick = tk
			}
			if b := e.curTick &^ int64(slotMask); b > e.cascadedTo {
				e.cascadedTo = b
			}
			e.refill()
			continue
		}
		// Nothing below the next window boundary: advance to it and
		// cascade the matching coarser slots down. When levels 0 and 1
		// are both empty, whole level-1 windows are skipped at once
		// (their cascades would be no-ops).
		var boundary int64
		if e.levels[0].count == 0 && e.levels[1].count == 0 {
			boundary = (e.curTick | (1<<(2*levelBits) - 1)) + 1
		} else {
			boundary = (e.curTick | slotMask) + 1
		}
		e.curTick = boundary
		e.runCascades(boundary)
	}
}

// runCascades performs the cascades due at window boundary b (a multiple
// of numSlots): a horizon refill when b opens a new overflow window, a
// level-2 slot when b opens a new level-1 window, and always the level-1
// slot feeding the level-0 window that starts at b.
func (e *Engine) runCascades(b int64) {
	e.cascadedTo = b
	if b&(horizonTicks-1) == 0 && len(e.over) > 0 {
		e.refill()
	}
	if b&(1<<(2*levelBits)-1) == 0 {
		e.cascade(2, int(b>>(2*levelBits))&slotMask)
	}
	e.cascade(1, int(b>>levelBits)&slotMask)
}

// loadSlot drains level-0 slot j (holding tick tk) into the firing batch
// in canonical order. Every entry of a level-0 slot has the same tick, so
// the six bits of at below the tick (subShift) cut it into 64 buckets of
// 128 ps whose order is at order. A slot of up to 64 entries — the bound
// uint8 chain links and one occupancy word give, and so chunkLen — is one
// chunk: it is chained into those buckets in place, walked out bucket by
// bucket, and only a bucket holding more than one entry (events under
// 128 ps apart, or an exact at tie) reaches sortEntries. A slot whose
// entries share one bucket, or that spans several chunks, is copied into
// the batch and sorted whole: it is mostly exact at ties (permutation
// traffic starting in step), which buckets cannot split. Either way the
// slot's chunks are back on the spare list before the batch fires; the
// batch grows by append's rule. Entries move by element
// copies, not copy(), except in a slot sorted whole: most ticks hold a few
// entries, and for those a call into the runtime costs more than the
// tick. Consumed entries linger in spare chunks and beyond the batch's
// length; they only pin pooled nodes, which the free list keeps alive
// anyway.
func (e *Engine) loadSlot(j int, tk int64) {
	l := &e.levels[0]
	cs, n := l.take(j)
	e.curTick = tk + 1
	b := slices.Grow(e.batch[:0], n)[:n]
	e.batch = b
	if n > chunkLen {
		for i, c := range cs {
			copy(b[i*chunkLen:], c[:])
		}
		e.release(l, j)
		sortEntries(b, bits.Len(uint(n))*2)
		return
	}
	// The chunk is spare once released, but nothing takes a chunk before
	// this drain returns, so s stays intact while it is read.
	s := cs[0][:n]
	e.release(l, j)
	if n == 1 {
		b[0] = s[0]
		return
	}
	// 1-based entry index; 0 ends a chain. The &63 on an index below n
	// changes nothing but drops the bounds check.
	var head, next [chunkLen]uint8
	var occ uint64
	for i := n - 1; i >= 0; i-- {
		q := uint(s[i].at>>subShift) & 63
		next[i&63] = head[q]
		head[q] = uint8(i + 1)
		occ |= 1 << q
	}
	if occ&(occ-1) == 0 {
		copy(b, s)
		sortEntries(b, bits.Len(uint(n))*2)
		return
	}
	pos := 0
	for ; occ != 0; occ &= occ - 1 {
		start := pos
		for i := head[bits.TrailingZeros64(occ)]; i != 0; i = next[(i-1)&63] {
			b[pos] = s[i-1]
			pos++
		}
		if m := pos - start; m > 1 {
			sortEntries(b[start:pos], bits.Len(uint(m))*2)
		}
	}
}

// sortEntries is an introsort over the canonical key with the comparator
// inlined: median-of-three quicksort, insertion sort below 16 elements,
// heapsort past the depth limit. The generic slices.SortFunc pays an
// indirect call per comparison, which on 32-byte value entries dominated
// the engine profile. loadSlot calls it on a sub-tick bucket of two or
// more entries (mostly a pair under 128 ps apart) and on a slot it does
// not bucket:
// one whose entries all share a bucket, or one of more than 64 — on the
// large fabrics, hundreds of same-instant entries ordered by (dsched,
// phash). The ordering is identical to slices.SortFunc(s, cmpEntry) —
// elements are unique under the total key, so stability is moot.
func sortEntries(s []entry, depth int) {
	for len(s) > 16 {
		if depth--; depth < 0 {
			heapSortEntries(s)
			return
		}
		// Median-of-three pivot: order s[0], s[mid], s[last] so the
		// median lands at s[mid], then use it as the pivot value.
		m := len(s) / 2
		last := len(s) - 1
		if s[m].less(s[0]) {
			s[m], s[0] = s[0], s[m]
		}
		if s[last].less(s[m]) {
			s[last], s[m] = s[m], s[last]
			if s[m].less(s[0]) {
				s[m], s[0] = s[0], s[m]
			}
		}
		p := s[m]
		i, j := 0, last
		for {
			for s[i].less(p) {
				i++
			}
			for p.less(s[j]) {
				j--
			}
			if i >= j {
				break
			}
			s[i], s[j] = s[j], s[i]
			i++
			j--
		}
		// Recurse into the smaller half, loop on the larger.
		if j+1 < len(s)-(j+1) {
			sortEntries(s[:j+1], depth)
			s = s[j+1:]
		} else {
			sortEntries(s[j+1:], depth)
			s = s[:j+1]
		}
	}
	// Insertion sort: short slices and nearly-sorted slot tails.
	for i := 1; i < len(s); i++ {
		ent := s[i]
		j := i - 1
		for j >= 0 && ent.less(s[j]) {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = ent
	}
}

// heapSortEntries is the introsort depth-limit fallback (adversarial
// partition patterns only; never hit by real slot contents).
func heapSortEntries(s []entry) {
	for i := len(s)/2 - 1; i >= 0; i-- {
		siftEntries(s, i, len(s))
	}
	for end := len(s) - 1; end > 0; end-- {
		s[0], s[end] = s[end], s[0]
		siftEntries(s, 0, end)
	}
}

func siftEntries(s []entry, root, end int) {
	for {
		c := 2*root + 1
		if c >= end {
			return
		}
		if c+1 < end && s[c].less(s[c+1]) {
			c++
		}
		if !s[root].less(s[c]) {
			return
		}
		s[root], s[c] = s[c], s[root]
		root = c
	}
}

// cascade re-buckets one slot of a coarser level. Every entry lands in a
// finer level (its tick shares the current window), so relative order is
// decided later by the slot sort — cascading cannot reorder — and the
// walk never appends to the slot it reads. Each chunk goes back to the
// spare list once walked, so the next chunk's entries can land in it.
func (e *Engine) cascade(li, idx int) {
	lv := &e.levels[li]
	if lv.n[idx] == 0 {
		return
	}
	cs, n := lv.take(idx)
	for i, c := range cs {
		for _, ent := range c[:min(n-i*chunkLen, chunkLen)] {
			e.place(ent)
		}
		e.spare = append(e.spare, c)
		cs[i] = nil
	}
	lv.slot[idx] = cs[:0]
}

// refill pulls every overflow event inside the wheel horizon into the
// wheel.
func (e *Engine) refill() {
	for len(e.over) > 0 {
		if int64(e.over[0].at)>>tickBits-e.curTick >= horizonTicks {
			return
		}
		e.place(e.overPop())
	}
}

// Step executes the single earliest pending event and returns true. It
// returns false when no live events remain — or when an in-loop limit
// trips (Tripped non-nil): the refused entry stays pending and the
// clock does not move.
func (e *Engine) Step() bool {
	for {
		for e.bi < len(e.batch) {
			ent := e.batch[e.bi]
			n := ent.n
			if n.cancelled {
				e.bi++
				e.pending--
				e.reap(n)
				continue
			}
			if !e.admit(ent) {
				return false
			}
			e.bi++
			e.pending--
			e.now = ent.at
			e.nSteps++
			// Establish the causal context for anything the callback
			// schedules: the running event's identity hash becomes the
			// parent hash, children count from zero. The entry's own key
			// is exposed via ExecKey for external record tagging.
			e.execHi, e.execLo = ent.hi, ent.lo
			e.curHash = mix64(ent.phash(), ent.lo&0xFFFFFFFF)
			e.childIdx = 0
			fn, arg := n.fn, n.arg
			e.reap(n)
			fn(arg)
			return true
		}
		if !e.advance() {
			return false
		}
	}
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes all events scheduled at or before t, then advances the
// clock to t. Events scheduled after t remain pending. If an in-loop
// limit trips (Tripped non-nil) RunUntil returns immediately without
// advancing the clock, leaving the refused entry pending.
func (e *Engine) RunUntil(t Time) {
	for e.trip == nil {
		// Reap cancelled entries at the batch cursor eagerly so the
		// horizon check below sees the earliest *live* event (Step would
		// otherwise skip past a dead head and run an event beyond t).
		for e.bi < len(e.batch) && e.batch[e.bi].n.cancelled {
			e.pending--
			e.reap(e.batch[e.bi].n)
			e.bi++
		}
		if e.bi >= len(e.batch) {
			if !e.advance() {
				break
			}
			continue
		}
		if e.batch[e.bi].at > t {
			break
		}
		e.Step()
	}
	if e.trip != nil {
		return
	}
	if e.now < t {
		e.now = t
	}
}

// Reset returns the engine to its initial zero-time state — clock,
// causal context, step count and drain position at zero, no pending
// events — while keeping every warmed buffer: the wheel's chunks (all
// spare), the batch capacity, the overflow heap's backing array, and the
// node free list (pending events are discarded and their nodes
// recycled). A reset engine is observationally identical to New(), so
// suite harnesses reuse engines across runs to skip the per-run pool and
// wheel warm-up (see internal/exp).
func (e *Engine) Reset() {
	for li := range e.levels {
		lv := &e.levels[li]
		for idx := 0; lv.count > 0 && idx < numSlots; idx++ {
			cs, n := lv.take(idx)
			for i, c := range cs {
				used := c[:min(n-i*chunkLen, chunkLen)]
				for _, ent := range used {
					e.reap(ent.n)
				}
				clear(used)
			}
			e.release(lv, idx)
		}
	}
	for _, ent := range e.over {
		e.reap(ent.n)
	}
	clear(e.over)
	e.over = e.over[:0]
	for i := e.bi; i < len(e.batch); i++ {
		e.reap(e.batch[i].n)
	}
	clear(e.batch)
	e.batch = e.batch[:0]
	e.bi = 0
	e.now, e.nSteps, e.curTick, e.cascadedTo, e.pending = 0, 0, 0, 0, 0
	e.curHash, e.childIdx = 0, 0
	e.execHi, e.execLo = 0, 0
	e.lastAt, e.sameRun, e.stopSteps, e.maxSame, e.trip = 0, 0, 0, 0, nil
}

// less orders entries by the canonical key. It must agree with cmpEntry
// exactly (the property test cross-checks both); it is written out
// rather than delegating so the sort and heap hot paths inline it.
func (a entry) less(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.hi != b.hi {
		return a.hi < b.hi
	}
	return a.lo < b.lo
}

// overPush inserts an entry into the overflow heap and sifts it up.
func (e *Engine) overPush(ent entry) {
	h := append(e.over, ent)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].less(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.over = h
}

// overPop removes and returns the overflow heap's minimum entry.
func (e *Engine) overPop() entry {
	h := e.over
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = entry{}
	h = h[:last]
	// Sift down.
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		m := l
		if r := l + 1; r < last && h[r].less(h[l]) {
			m = r
		}
		if !h[m].less(h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	e.over = h
	return top
}
