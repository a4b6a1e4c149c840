// Package psim runs one simulation across several timing-wheel engines
// — conservative parallel discrete-event simulation (PDES) in the
// classic null-message lineage — while reproducing the serial engine's
// firing order byte-for-byte at any shard count and any worker count.
//
// # Model
//
// The fabric is sharded along topology-natural cuts (pods for
// fat-trees, leaf/spine groups for leaf-spine; see
// internal/topo.Plan): each shard (partition) owns a subset of hosts,
// switches and queues and drives them with its own sim.Engine. How many
// shards there are is a property of the fabric; how many goroutines
// step them is a separate number, the worker count W. Shard i belongs
// to worker i mod W, and within a round a worker steps its shards one
// after another, each to its own bound. With W = 1 there is no
// goroutine, channel or WaitGroup at all: Run is a loop on the calling
// goroutine, and sharding is then a scheduling policy — a shard's
// events run together, in windows of one lookahead, so the hosts,
// ports and packets they touch stay in cache — not a concurrency
// feature (PERF.md "PR 19"). Every ordered pair of shards that a cut
// link joins has one sync edge i→j (AddEdge), whose lookahead L(i,j) is
// the minimum latency of any message crossing from i to j — for a link,
// propagation delay plus minimum serialization time, least over the
// pair's links — a hard physical lower bound on how far in the future a
// send from i can affect j. One shard is a plan too: a fabric whose only
// shard is the control engine itself is a serial run, and Run is then
// one RunUntil on that engine.
//
// Cross-partition packet deliveries become mailbox messages, one mailbox
// an edge: the sending port consumes a causal child slot on its engine
// (sim.Engine.ChildKey) and posts the resulting canonical key with the
// packet into its shard pair's mailbox. At the next barrier the
// coordinator hands each message to its Arriver, the port, which puts
// the packet on its wire and injects the same delivery event a local
// wire schedules into the destination engine (sim.Engine.InjectKey).
// The injected entry is bit-identical to the one a serial run would
// have scheduled, so the canonical order (at, dsched, phash, k) — a
// pure function of the causal tree, independent of which engine
// executes which branch — makes every partition fire its events in
// exactly the serial sub-order.
//
// # Synchronization
//
// The coordinator advances the run in barrier rounds. In each round a
// partition may execute up to (exclusively) the canonical key
// min(KeyBefore(safe_i), nextCtrl), where safe_i = min over incoming
// sync edges j→i of clock_j + L(j,i): no message that a neighbor has
// yet to send can arrive before safe_i, so everything earlier is
// causally settled. Events shared by the whole fabric — probe
// samplers, routing changes — live on a separate control engine that
// fires only at a barrier, with every partition paused at exactly the
// control event's canonical key, never past it; control callbacks may
// therefore read and mutate any partition's state single-threaded.
// The run terminates when no control event remains at or before the
// horizon, no messages are in flight, and every partition has drained
// up to the horizon.
//
// # Why the result is byte-identical to serial
//
// Three facts combine: (1) the canonical key totally orders all events
// and is partition-invariant; (2) same-instant causal chains never
// cross a cut (lookahead > 0 means an arrival's timestamp strictly
// exceeds its send time), so a partition never needs an event another
// partition has not yet sent while events below its bound remain; (3)
// bounds only ever stop a partition at keys no other pending or future
// event can precede. Induction over barrier rounds then gives: the
// multiset of fired (key, callback) pairs and each partition's firing
// sub-order equal the serial run's, and the record merge by canonical
// key (internal/scenario) reconstructs the serial append order
// exactly. PERF.md § PDES carries the full argument. None of it
// mentions who steps a shard: a round's bounds are fixed before any
// shard moves and a shard touches only its own state and the mailboxes
// it alone posts into, so the order in which — or the goroutines on
// which — the shards of one round are stepped cannot be observed.
package psim

import (
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// An Arriver is where a message lands on its destination shard: Arrive
// schedules the message's effect on that shard's engine under the key
// the sender drew for it (sim.Engine.InjectKey). A link.Port whose wire
// ends on another shard is one.
type Arriver interface {
	Arrive(eng *sim.Engine, k sim.Key, arg any)
}

// msg is one cross-shard message: the canonical key the serial engine
// would have given its event, where it lands, and the argument (the
// packet).
type msg struct {
	key sim.Key
	to  Arriver
	arg any
}

// Mailbox buffers the messages one shard sends another: there is one per
// sync edge, so one per ordered shard pair (AddEdge). Only the sending
// shard posts into it, and the coordinator drains it only between
// barrier rounds, so no lock is needed: the round barrier's
// happens-before edge publishes the buffer (and with one worker there
// is one goroutine).
type Mailbox struct{ buf []msg }

// Post enqueues a message for to under its pre-computed canonical key.
// Called by the sending shard only, during its run slice.
func (m *Mailbox) Post(k sim.Key, to Arriver, arg any) {
	m.buf = append(m.buf, msg{key: k, to: to, arg: arg})
}

// edge is the sync edge from one shard into another: its lookahead and
// the mailbox of the messages crossing it.
type edge struct {
	from int
	look sim.Duration
	box  Mailbox
}

// Fabric couples the partition engines, the control engine and the sync
// edges with their mailboxes into one runnable parallel simulation.
type Fabric struct {
	ctrl    *sim.Engine
	parts   []*sim.Engine
	workers int
	in      [][]*edge    // in[i]: edges into partition i, drained in this order
	edges   []*edge      // every edge, in the order AddEdge made them
	spare   []Mailbox    // what an earlier fabric's edges left (Adopt)
	bounds  []sim.Key    // this round's bound per partition
	helping atomic.Int32 // helper goroutines started and not yet returned
}

// New returns a fabric over the given control engine and partition
// engines, stepped by the given number of workers, at least one; there
// are never more workers than partitions. A single partition may be the
// control engine itself. Sync edges are registered before Run.
func New(ctrl *sim.Engine, parts []*sim.Engine, workers int) *Fabric {
	if workers < 1 {
		panic("psim: a fabric needs a worker")
	}
	workers = min(workers, len(parts))
	return &Fabric{
		ctrl: ctrl, parts: parts, workers: workers,
		in: make([][]*edge, len(parts)), bounds: make([]sim.Key, len(parts)),
	}
}

// Workers reports how many workers step the fabric's partitions.
func (f *Fabric) Workers() int { return f.workers }

// AddEdge declares that messages flow from partition `from` to partition
// `to`, none arriving sooner than look after it is sent, and returns the
// pair's mailbox. An ordered pair has one edge and one mailbox however
// often it is declared — once per cut link, say — and the edge keeps the
// least lookahead declared, which bounds every message across it.
func (f *Fabric) AddEdge(from, to int, look sim.Duration) *Mailbox {
	if look <= 0 {
		panic("psim: cut lookahead must be positive")
	}
	for _, e := range f.in[to] {
		if e.from == from {
			e.look = min(e.look, look)
			return &e.box
		}
	}
	e := &edge{from: from, look: look}
	if i := len(f.edges); i < len(f.spare) {
		e.box = f.spare[i]
	}
	f.in[to] = append(f.in[to], e)
	f.edges = append(f.edges, e)
	return &e.box
}

// Adopt hands the fabric the mailboxes a finished fabric gave up
// (Mailboxes): the i-th edge AddEdge makes takes the i-th one, so a
// repeat of a run finds each mailbox's buffer as large as it left it.
// Call it before the first AddEdge.
func (f *Fabric) Adopt(boxes []Mailbox) { f.spare = boxes }

// Mailboxes writes the fabric's mailboxes, emptied, over the first
// places of boxes in the order AddEdge made their edges, appends those
// beyond its end, and returns it; places past the fabric's edges keep
// what they held. The fabric must not run again.
func (f *Fabric) Mailboxes(boxes []Mailbox) []Mailbox {
	for i, e := range f.edges {
		m := e.box
		clear(m.buf) // a tripped run leaves its posts buffered
		m.buf = m.buf[:0]
		if i == len(boxes) {
			boxes = append(boxes, m)
		} else {
			boxes[i] = m
		}
	}
	return boxes
}

// Lookahead reports the lookahead of the edge from partition `from` to
// partition `to`, and whether there is one.
func (f *Fabric) Lookahead(from, to int) (sim.Duration, bool) {
	for _, e := range f.in[to] {
		if e.from == from {
			return e.look, true
		}
	}
	return 0, false
}

// Steps reports the total number of events executed so far across the
// control and partition engines, each counted once — by construction
// equal to the serial engine's step count for the same scenario.
func (f *Fabric) Steps() uint64 {
	n := f.ctrl.Steps()
	for _, e := range f.parts {
		if e != f.ctrl {
			n += e.Steps()
		}
	}
	return n
}

// Tripped reports whether any engine in the fabric hit an in-loop limit
// (sim.Engine.SetLimits), returning the trip whose refused event orders
// earliest in the canonical order — a deterministic choice even when
// several partitions trip in the same barrier round. A tripped fabric
// is frozen: Run returns without advancing further until the engines
// are Reset.
func (f *Fabric) Tripped() *sim.Trip {
	var best *sim.Trip
	consider := func(tr *sim.Trip) {
		if tr == nil {
			return
		}
		if best == nil || tr.Key.Less(best.Key) {
			best = tr
		}
	}
	consider(f.ctrl.Tripped())
	for _, e := range f.parts {
		consider(e.Tripped())
	}
	return best
}

// Run executes the partitioned simulation up to and including horizon,
// then leaves every engine's clock at horizon — the partitioned
// equivalent of sim.Engine.RunUntil(horizon) on a serial engine.
func (f *Fabric) Run(horizon sim.Time) {
	p := len(f.parts)
	if p == 1 && f.parts[0] == f.ctrl {
		// One engine holds everything: no bound, no round, no mailbox.
		f.ctrl.RunUntil(horizon)
		return
	}
	end := sim.KeyAtEnd(horizon)

	// A fabric left tripped by an earlier Run slice stays frozen.
	if f.Tripped() != nil {
		return
	}

	// Workers beyond the first are goroutines that live for this call;
	// the first is the caller.
	var crew *helpers
	if f.workers > 1 {
		crew = f.startHelpers()
		defer crew.stop()
	}
	bounds := f.bounds

	for {
		// The next control event's key, capped by the horizon. While
		// ctrlDue, no partition may run to or past kg.
		kg := end
		ctrlDue := false
		if k, ok := f.ctrl.PeekKey(); ok && !end.Less(k) {
			kg, ctrlDue = k, true
		}

		// Per-partition bound: strictly below the earliest possible
		// future arrival, and never at/past the next control event.
		for i := 0; i < p; i++ {
			b := end
			for _, e := range f.in[i] {
				safe := f.parts[e.from].Now().Add(e.look)
				if c := sim.KeyBefore(safe); c.Less(b) {
					b = c
				}
			}
			if kg.Less(b) {
				b = kg
			}
			bounds[i] = b
		}

		// The slice: each partition advances to its bound.
		if crew != nil {
			crew.release()
		}
		f.stepShards(0)
		if crew != nil {
			crew.round.Wait()
		}

		// A tripped partition's RunUntilKey returns without advancing, so
		// the coordinator would re-issue the same bounds forever; freeze
		// the whole fabric at the first trip instead. Undelivered mailbox
		// posts are left buffered — a tripped run never resumes.
		if f.Tripped() != nil {
			return
		}

		// Drain each partition's incoming edges in registration order;
		// within a mailbox, in post order. Injection order cannot affect
		// firing order — the canonical key decides — but a fixed order
		// keeps the whole coordinator deterministic, and post order is
		// what lets a wire keep its packets in send order.
		delivered := false
		for i, in := range f.in {
			eng := f.parts[i]
			for _, e := range in {
				m := &e.box
				if len(m.buf) == 0 {
					continue
				}
				delivered = true
				for _, d := range m.buf {
					d.to.Arrive(eng, d.key, d.arg)
				}
				clear(m.buf)
				m.buf = m.buf[:0]
			}
		}
		if delivered {
			// New arrivals may order before this round's control key or
			// below a neighbor's bound; recompute everything.
			continue
		}

		// Quiescent below the bounds. Fire the next control event once
		// every partition has both reached its timestamp and drained all
		// events ordering before it.
		if ctrlDue {
			ready := true
			for i := 0; i < p && ready; i++ {
				if f.parts[i].Now() < kg.At {
					ready = false
					break
				}
				if k, ok := f.parts[i].PeekKey(); ok && k.Less(kg) {
					ready = false
				}
			}
			if ready {
				// Single-threaded control slice: all partitions are paused
				// at or before kg.At with nothing earlier pending, so the
				// callback may touch any partition's state.
				if !f.ctrl.Step() && f.ctrl.Tripped() != nil {
					// The control engine refused the event: without this
					// break the due-but-unfired control key would spin the
					// coordinator forever.
					return
				}
			}
			continue
		}

		// No control work left at or before the horizon: finish when
		// every partition has drained up to and including it.
		done := true
		for i := 0; i < p; i++ {
			if f.parts[i].Now() < horizon {
				done = false
				break
			}
			if k, ok := f.parts[i].PeekKey(); ok && !end.Less(k) {
				done = false
				break
			}
		}
		if done {
			break
		}
	}

	// Leave the control clock at the horizon, like a serial RunUntil.
	f.ctrl.RunUntil(horizon)
}

// stepShards advances worker w's partitions — w, w+W, w+2W, … — to
// their bounds, one after another.
func (f *Fabric) stepShards(w int) {
	for i := w; i < len(f.parts); i += f.workers {
		f.parts[i].RunUntilKey(f.bounds[i])
	}
}

// helpers are workers 1…W−1 of one Run call: goroutines that wait for a
// round's bounds, step their partitions and report in. The channel send
// publishes the bounds and last round's injections to a helper; the
// WaitGroup publishes its engines' state and mailbox buffers back to the
// coordinator.
type helpers struct {
	start  []chan struct{}
	round  sync.WaitGroup
	exited sync.WaitGroup
}

func (f *Fabric) startHelpers() *helpers {
	h := &helpers{start: make([]chan struct{}, f.workers-1)}
	h.exited.Add(len(h.start))
	f.helping.Add(int32(len(h.start)))
	for i := range h.start {
		h.start[i] = make(chan struct{})
		go func(start <-chan struct{}, w int) {
			defer h.exited.Done()
			defer f.helping.Add(-1)
			for range start {
				f.stepShards(w)
				h.round.Done()
			}
		}(h.start[i], i+1)
	}
	return h
}

// release starts a round on every helper.
func (h *helpers) release() {
	h.round.Add(len(h.start))
	for _, c := range h.start {
		c <- struct{}{}
	}
}

// stop ends the helpers and returns once they have exited.
func (h *helpers) stop() {
	for _, c := range h.start {
		close(c)
	}
	h.exited.Wait()
}
