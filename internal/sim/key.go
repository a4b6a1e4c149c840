package sim

import "math"

// This file is the cross-engine face of the canonical event order. The
// wheel itself (engine.go) ranks entries by (at, dsched, phash, k); the
// Key type and the operations here let an external coordinator —
// internal/psim's conservative-sync fabric — observe that order
// (PeekKey, ExecKey), bound execution by it (RunUntilKey), and extend
// the causal tree across engine boundaries (SetOrigin, ChildKey,
// InjectKey) so that a partitioned run fires every event in exactly the
// order a single serial engine would.

// originSalt seeds the hash of causal roots: events scheduled from
// outside any callback (scenario setup, probe installation, route-event
// registration) get phash = mix64(originSalt, key) where key is a
// stable entity-derived identifier supplied via SetOrigin. The salt
// separates the origin-hash domain from the identity-hash domain
// (mix64(parentHash, childIdx)) so a root cannot collide with a
// first-generation child of hash 0.
const originSalt = 0x9E3779B97F4A7C15

// mix64 combines a parent hash with a child discriminator into a new
// 64-bit hash (splitmix64 finalizer over the sum — fast, stateless, and
// well-distributed). It is the only hash in the causal-key scheme;
// collisions between two live same-instant events would make their
// relative order fall to the sort's tie-handling, a 2^-64-per-pair risk
// the design accepts (see PERF.md).
func mix64(h, x uint64) uint64 {
	z := h + 0x9E3779B97F4A7C15 + x*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// satDelta returns the scheduling distance at−now saturated to uint32
// (~4.29 ms in picoseconds). Saturation keeps the entry small and is
// partition-invariant: the distance is a property of the scheduling
// call itself, identical wherever the parent runs, so saturated values
// compare equal everywhere too. Events scheduled that far ahead (RTOs,
// failure schedules) are causally sparse — ties among them at the same
// instant fall through to (phash, k), which still orders totally.
func satDelta(t, now Time) uint32 {
	d := int64(t) - int64(now)
	if d >= math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// Key is an event's position in the canonical total order. Keys compare
// by (At ASC, DSched DESC, PHash ASC, K ASC) — see cmpEntry in
// engine.go for the single audited comparator; Less mirrors it.
type Key struct {
	At     Time
	PHash  uint64
	DSched uint32
	K      uint32
}

// Less reports whether k orders strictly before o in the canonical
// order.
func (k Key) Less(o Key) bool {
	return k.entry().less(o.entry())
}

// entry converts a Key to the packed entry layout (no node).
func (k Key) entry() entry {
	hi, lo := packKey(k.PHash, k.DSched, k.K)
	return entry{at: k.At, hi: hi, lo: lo}
}

// KeyBefore returns a bound that orders before every real event at time
// t: RunUntilKey(KeyBefore(t)) fires everything strictly before t and
// nothing at t.
func KeyBefore(t Time) Key {
	return Key{At: t, DSched: math.MaxUint32, PHash: 0, K: 0}
}

// KeyAtEnd returns a bound that orders after every real event at time
// t: RunUntilKey(KeyAtEnd(t)) fires everything at or before t.
func KeyAtEnd(t Time) Key {
	return Key{At: t, DSched: 0, PHash: math.MaxUint64, K: math.MaxUint32}
}

// SetOrigin establishes a causal root for events scheduled outside any
// callback: subsequent At/AtCall calls (until the next fired event or
// SetOrigin) stamp children with phash = mix64(originSalt, key) and
// child indices counting from zero. Callers pass a stable
// entity-derived key (flow launch counter, probe index, route-schedule
// constant) so the root hash — and therefore every descendant's
// position in the canonical order — is identical no matter which engine
// the call lands on. Scenario setup MUST use distinct keys per root;
// reusing a key across roots makes their children collide.
func (e *Engine) SetOrigin(key uint64) {
	e.curHash = mix64(originSalt, key)
	e.childIdx = 0
}

// ChildKey consumes one child slot of the current causal context and
// returns the canonical key a local event scheduled now for time t
// would have received — without creating any event. A cross-engine
// sender calls ChildKey at the send instant and ships the key with the
// message; the receiver schedules it via InjectKey, reproducing exactly
// the entry the serial engine would have placed. Symmetry with At is
// load-bearing: one send consumes one child index on the sender, one
// injected entry appears on the receiver, and the canonical key is the
// same as in the serial run where sender and receiver share an engine.
func (e *Engine) ChildKey(t Time) Key {
	k := Key{At: t, PHash: e.curHash, DSched: satDelta(t, e.now), K: e.childIdx}
	e.childIdx++
	return k
}

// InjectKey schedules fn(arg) under an explicit canonical key, as
// produced by ChildKey on another engine. Injection is only legal at or
// after the receiver's clock — the conservative-sync fabric guarantees
// this by bounding each engine's progress below incoming horizons; a
// violation panics just like past scheduling in At.
func (e *Engine) InjectKey(k Key, fn func(any), arg any) Event {
	n := e.take(k.At)
	n.fn = fn
	n.arg = arg
	e.pending++
	hi, lo := packKey(k.PHash, k.DSched, k.K)
	e.place(entry{at: k.At, hi: hi, lo: lo, n: n})
	return Event{n: n, gen: n.gen}
}

// ExecKey returns the canonical key of the event currently executing
// (or most recently executed). Record sinks tag appended data with it
// so a cross-partition merge can reconstruct the exact serial append
// order.
func (e *Engine) ExecKey() Key {
	ent := entry{at: e.now, hi: e.execHi, lo: e.execLo}
	return Key{At: e.now, PHash: ent.phash(), DSched: ent.dsched(), K: ent.k()}
}

// PeekKey returns the canonical key of the earliest live pending event,
// or ok=false when none remain. Peeking may rotate the wheel (loading
// the next slot into the firing batch and reaping cancelled heads) but
// fires nothing and never moves the clock.
func (e *Engine) PeekKey() (Key, bool) {
	for {
		for e.bi < len(e.batch) && e.batch[e.bi].n.cancelled {
			e.pending--
			e.reap(e.batch[e.bi].n)
			e.bi++
		}
		if e.bi < len(e.batch) {
			ent := e.batch[e.bi]
			return Key{At: ent.at, PHash: ent.phash(), DSched: ent.dsched(), K: ent.k()}, true
		}
		if !e.advance() {
			return Key{}, false
		}
	}
}

// RunUntilKey executes every event ordering strictly before bound, then
// advances the clock to bound.At. It is RunUntil generalized from a
// time bound to a canonical-order bound: the conservative-sync fabric
// uses it to stop a partition exactly at the next control event's key,
// so no partition fires past an instant where another engine's event
// interleaves. RunUntil(t) ≡ RunUntilKey(KeyAtEnd(t)).
func (e *Engine) RunUntilKey(bound Key) {
	for e.trip == nil {
		k, ok := e.PeekKey()
		if !ok || !k.Less(bound) {
			break
		}
		e.Step()
	}
	if e.trip != nil {
		// An in-loop limit stopped the engine: the refused entry stays
		// pending and the clock must not advance past it.
		return
	}
	if e.now < bound.At {
		e.now = bound.At
	}
}
