// Package sim provides the deterministic discrete-event simulation
// engine every experiment runs on: a picosecond-resolution clock and a
// hierarchical timing wheel of scheduled events (with a small overflow
// heap for the far future).
//
// # Role in the stack
//
// sim is the bottom layer. links, switches, transports and experiment
// runners all schedule callbacks here; nothing in the engine knows about
// packets or networks.
//
// # Invariants
//
//   - Single-threaded by design: one goroutine drives the wheel, so
//     reproducible event ordering is structural, not locked-in. Two runs
//     with the same seed are byte-identical on every platform. Run
//     concurrent simulations on separate Engines (the exp.Suite does
//     exactly that).
//   - One causal total order, wheel or not: at ASC, then dsched DESC
//     (scheduled earlier fires first), phash ASC (the scheduling parent's
//     causal hash), k ASC (the parent's child index). Every component is
//     a function of the causal tree, not of allocation order, so a
//     partitioned run fires in the serial order. A slot drains as one
//     batch: up to 64 entries are scattered into 128 ps sub-tick buckets
//     and only a bucket of two or more is sorted; a larger slot is sorted
//     whole. The property tests pin the firing order to a reference
//     binary heap's.
//   - The steady-state hot path allocates nothing: event nodes are
//     recycled through a free list with generation counters, so an Event
//     handle to recycled storage goes stale instead of aliasing a new
//     event. Cancel is lazy mark-and-skip (no wheel surgery), and
//     schedule/fire are O(1) chunk appends and batch reads rather than
//     O(log n) sifts: a slot's 64-entry chunks come from one engine-wide
//     spare list and go back to it when the slot drains or cascades.
//   - Once an event has fired or been reaped its handle is inert:
//     Scheduled reports false and Cancel is a no-op.
//   - Timer is the re-armable variant for long-lived callbacks (pacing,
//     RTO, serializers): a field of its owner, bound once to a static
//     callback and an argument; deadline extensions are lazy field
//     writes — wheel-granularity-agnostic, because the extension never
//     moves the queued entry — never a delete + insert.
//
// See PERF.md at the repository root for the wheel layout, the
// determinism argument, and the full pooling contract.
package sim
