package packet

import "fmt"

// FlowTable is per-flow state indexed by the dense FlowID a network hands
// out, shared by the network's hosts: a transport's slot holds a send
// half, written on the source's engine, and a receive half, written on
// the destination's. Slots come in blocks and never move as the table
// grows. A flow's launch reserves its slot, before the run, so no shard
// grows a table mid-run. Clear empties the table and keeps its blocks,
// so the next network it serves grows it only past them.
type FlowTable[T any] struct {
	blocks []*[flowBlock]T // those in use first, then the zeroed spares
	used   int             // blocks in use
}

const flowBlock = 16

// Slot returns id's slot, growing the table to hold it.
func (t *FlowTable[T]) Slot(id FlowID) *T {
	for id/flowBlock >= FlowID(t.used) {
		if t.used == len(t.blocks) {
			t.blocks = append(t.blocks, new([flowBlock]T))
		}
		t.used++
	}
	return &t.blocks[id/flowBlock][id%flowBlock]
}

// Lookup returns id's slot, or nil if the table does not hold it.
func (t *FlowTable[T]) Lookup(id FlowID) *T {
	if id/flowBlock >= FlowID(t.used) {
		return nil
	}
	return &t.blocks[id/flowBlock][id%flowBlock]
}

// Len returns the number of slots the table holds. Tests read it to
// check that a run grows no table.
func (t *FlowTable[T]) Len() int { return t.used * flowBlock }

// Clear zeroes every slot in use and empties the table, which keeps its
// blocks as spares: it then pins nothing of the flows it held, and a
// network of as many flows takes its slots without allocating.
func (t *FlowTable[T]) Clear() {
	for _, b := range t.blocks[:t.used] {
		clear(b[:])
	}
	t.used = 0
}

// Table is a FlowTable of any slot type, as a network holds it.
type Table interface {
	Len() int
	Clear()
}

// ShareTable returns t, the table a host's network shares, as a table of
// T; the network's first host, handed nil, starts it. A network whose
// hosts keep different slot types cannot share one table, so t of another
// type panics.
func ShareTable[T any](t Table) *FlowTable[T] {
	if t == nil {
		return new(FlowTable[T])
	}
	tab, ok := t.(*FlowTable[T])
	if !ok {
		panic(fmt.Sprintf("packet: a host keeping %T cannot share a network's %T", tab, t))
	}
	return tab
}
