package packet

import "testing"

// A cleared table holds no slot and every block it held, zeroed: the
// next network's flows take those blocks in order and allocate nothing.
func TestFlowTableClearKeepsBlocks(t *testing.T) {
	var tab FlowTable[[2]int64]
	const flows = 3*flowBlock + 1
	fill := func() {
		for id := FlowID(1); id <= flows; id++ {
			tab.Slot(id)[0] = int64(id)
		}
	}
	fill()
	first := append([]*[flowBlock][2]int64(nil), tab.blocks...)
	tab.Clear()
	if tab.Len() != 0 || tab.Lookup(1) != nil {
		t.Fatalf("cleared table holds %d slots, slot 1 %v", tab.Len(), tab.Lookup(1))
	}
	for i, b := range first {
		if *b != ([flowBlock][2]int64{}) {
			t.Fatalf("block %d not zeroed: %v", i, *b)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { fill(); tab.Clear() }); allocs != 0 {
		t.Fatalf("refilling a cleared table made %v allocations, want 0", allocs)
	}
	fill()
	if len(tab.blocks) != len(first) || tab.Len() != len(first)*flowBlock {
		t.Fatalf("refilled table has %d blocks and %d slots, want %d blocks", len(tab.blocks), tab.Len(), len(first))
	}
	for i, b := range tab.blocks {
		if b != first[i] {
			t.Fatalf("block %d moved", i)
		}
	}
	// Fewer flows use a prefix; the rest stay spare and zero.
	tab.Clear()
	tab.Slot(1)
	if tab.Len() != flowBlock || tab.Lookup(flowBlock) != nil || len(tab.blocks) != len(first) {
		t.Fatalf("one flow: %d slots, %d blocks", tab.Len(), len(tab.blocks))
	}
}
