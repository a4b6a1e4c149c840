package packet

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/units"
)

func TestWireLen(t *testing.T) {
	p := &Packet{Kind: Data, PayloadLen: 1000}
	if got := p.WireLen(); got != 1048 {
		t.Fatalf("data wire len = %d, want 1048", got)
	}
	ack := &Packet{Kind: Ack}
	if got := ack.WireLen(); got != HeaderSize {
		t.Fatalf("ack wire len = %d", got)
	}
	// INT grows the packet by the option size.
	literalStack(p, []telemetry.HopRecord{{Rate: 25 * units.Gbps}, {Rate: 100 * units.Gbps}})
	want := int64(1048 + telemetry.WireLen(2))
	if got := p.WireLen(); got != want {
		t.Fatalf("with 2 hops = %d, want %d", got, want)
	}
}

func TestEnd(t *testing.T) {
	p := &Packet{PayloadLen: 1000}
	p.SetSeq(5000)
	if p.End() != 6000 {
		t.Fatalf("End = %d", p.End())
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		Data: "DATA", Ack: "ACK", CNP: "CNP", Grant: "GRANT", Request: "REQ",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if got := Kind(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestPacketString(t *testing.T) {
	d := &Packet{Kind: Data, Flow: 7, PayloadLen: 50, Src: 1, Dst: 2}
	d.SetSeq(100)
	if s := d.String(); !strings.Contains(s, "[100,150)") || !strings.Contains(s, "flow=7") {
		t.Errorf("data string = %q", s)
	}
	a := &Packet{Kind: Ack, Flow: 7}
	a.SetAckSeq(150)
	if s := a.String(); !strings.Contains(s, "ack=150") {
		t.Errorf("ack string = %q", s)
	}
	g := &Packet{Kind: Grant, Flow: 7}
	if s := g.String(); !strings.Contains(s, "GRANT") {
		t.Errorf("grant string = %q", s)
	}
}
