package link

import (
	"testing"
	"unsafe"
)

// TestPortLayout pins Port's size and the 64-byte line, counted from the
// port's first byte, of every field the drain loop touches: kick (the
// queue through Q, the device, the ledger words it writes, the
// serializer and the wire), txDone and deliver. A field change that
// moves any of them shows here, with the line it moved to, so the
// change can be weighed for what it does to the hot path. On a 32-bit
// host (GOARCH=386) pointers and interfaces are half as wide, and the
// second column holds.
func TestPortLayout(t *testing.T) {
	const wide = unsafe.Sizeof(uintptr(0)) == 8
	var pt Port
	size := uintptr(260)
	if wide {
		size = 344
	}
	if got := unsafe.Sizeof(pt); got != size {
		t.Errorf("Port is %d bytes, want %d", got, size)
	}
	for _, f := range []struct {
		name         string
		off          uintptr
		line, line32 uintptr
	}{
		{"Eng", unsafe.Offsetof(pt.Eng), 0, 0},
		{"Rate", unsafe.Offsetof(pt.Rate), 0, 0},
		{"Delay", unsafe.Offsetof(pt.Delay), 0, 0},
		{"Peer", unsafe.Offsetof(pt.Peer), 0, 0},
		{"Q", unsafe.Offsetof(pt.Q), 0, 0},
		{"Dev", unsafe.Offsetof(pt.Dev), 0, 0},
		{"Pool", unsafe.Offsetof(pt.Pool), 1, 0},
		{"Out", unsafe.Offsetof(pt.Out), 1, 0},
		{"FarPool", unsafe.Offsetof(pt.FarPool), 1, 0},
		{"txBytes", unsafe.Offsetof(pt.txBytes), 1, 0},
		{"txPkts", unsafe.Offsetof(pt.txPkts), 1, 1},
		{"lostTx", unsafe.Offsetof(pt.lostTx), 1, 1},
		{"lostRx", unsafe.Offsetof(pt.lostRx), 2, 1},
		{"plTx", unsafe.Offsetof(pt.plTx), 2, 1},
		{"plLostTx", unsafe.Offsetof(pt.plLostTx), 2, 1},
		{"plDelivered", unsafe.Offsetof(pt.plDelivered), 2, 2},
		{"plLostRx", unsafe.Offsetof(pt.plLostRx), 2, 2},
		{"vShare", unsafe.Offsetof(pt.vShare), 3, 2},
		{"busy", unsafe.Offsetof(pt.busy), 3, 2},
		{"paused", unsafe.Offsetof(pt.paused), 3, 2},
		{"down", unsafe.Offsetof(pt.down), 3, 2},
		{"txDone", unsafe.Offsetof(pt.txDone), 3, 2},
		{"fifo", unsafe.Offsetof(pt.fifo), 4, 3},
		{"wire", unsafe.Offsetof(pt.wire), 4, 3},
	} {
		want := f.line32
		if wide {
			want = f.line
		}
		if got := f.off / 64; got != want {
			t.Errorf("%s starts at byte %d, on line %d; want line %d", f.name, f.off, got, want)
		}
	}
}
