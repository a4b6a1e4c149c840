package cc

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestDCTCPAlphaTracksMarking(t *testing.T) {
	d := NewDCTCP()
	d.Init(lims())
	if !WantsECT(d) {
		t.Fatal("DCTCP must be ECN-capable")
	}
	// One full window of fully marked ACKs → α moves toward 1 and the
	// window is cut.
	w0 := d.Cwnd()
	d.OnAck(Ack{AckSeq: 50_000, SndNxt: 100_000, NewlyAcked: 50_000, ECNEcho: true})
	d.OnAck(Ack{AckSeq: 110_000, SndNxt: 200_000, NewlyAcked: 60_000, ECNEcho: true})
	if d.Alpha() <= 0 {
		t.Fatalf("alpha = %v after marked window", d.Alpha())
	}
	if d.Cwnd() >= w0 {
		t.Fatalf("cwnd did not decrease under marking: %v", d.Cwnd())
	}
}

func TestDCTCPNoCutWithoutMarks(t *testing.T) {
	d := NewDCTCP()
	d.Init(lims())
	d.cwnd = 100_000
	d.OnAck(Ack{AckSeq: 50_000, SndNxt: 90_000, NewlyAcked: 50_000})
	d.OnAck(Ack{AckSeq: 95_000, SndNxt: 180_000, NewlyAcked: 45_000})
	if d.Cwnd() <= 100_000 {
		t.Fatalf("unmarked window must grow: %v", d.Cwnd())
	}
	if d.Alpha() != 0 {
		t.Fatalf("alpha = %v with no marks", d.Alpha())
	}
}

func TestDCTCPProportionalReaction(t *testing.T) {
	// A lightly marked window cuts less than a fully marked one.
	run := func(markEvery int) float64 {
		d := NewDCTCP()
		d.Init(lims())
		seq := int64(0)
		for w := 0; w < 20; w++ { // several observation windows
			for i := 0; i < 10; i++ {
				seq += 10_000
				d.OnAck(Ack{
					AckSeq: seq, SndNxt: seq + 100_000, NewlyAcked: 10_000,
					ECNEcho: markEvery > 0 && i%markEvery == 0,
				})
			}
		}
		return d.Cwnd()
	}
	light := run(10) // 10% of bytes marked
	heavy := run(1)  // 100% marked
	if heavy >= light {
		t.Fatalf("heavier marking must cut deeper: light %v vs heavy %v", light, heavy)
	}
}

func TestRenoSlowStartThenAvoidance(t *testing.T) {
	r := NewReno()
	r.Init(lims())
	if r.Rate() != 0 {
		t.Fatal("Reno must be ACK-clocked (Rate 0)")
	}
	w0 := r.Cwnd() // 10 MSS
	r.OnAck(Ack{NewlyAcked: int64(w0)})
	if got := r.Cwnd(); got < 2*w0-1 {
		t.Fatalf("slow start: cwnd %v after acking a window, want ≈2×%v", got, w0)
	}
	// Loss: halve and leave slow start.
	r.OnLoss(0)
	w1 := r.Cwnd()
	if w1 >= 2*w0 {
		t.Fatalf("loss did not halve: %v", w1)
	}
	// Now additive: acking a full window adds ≈1 MSS.
	r.OnAck(Ack{NewlyAcked: int64(w1)})
	gain := r.Cwnd() - w1
	if gain < 900 || gain > 1100 {
		t.Fatalf("congestion avoidance gain = %v, want ≈1 MSS", gain)
	}
}

func TestRenoLossFloor(t *testing.T) {
	r := NewReno()
	r.Init(lims())
	for i := 0; i < 30; i++ {
		r.OnLoss(sim.Time(i))
	}
	if r.Cwnd() < 2*1000 || math.IsNaN(r.Cwnd()) {
		t.Fatalf("repeated loss drove cwnd to %v", r.Cwnd())
	}
}

func TestDCTCPLossHalvesToMSSFloor(t *testing.T) {
	d := NewDCTCP()
	d.Init(lims())
	d.OnLoss(0)
	if d.Cwnd() != 125_000 { // half of 100G × 20µs
		t.Fatalf("cwnd after loss = %v, want 125000", d.Cwnd())
	}
	for i := 0; i < 30; i++ {
		d.OnLoss(sim.Time(i))
	}
	if d.Cwnd() != 1000 {
		t.Fatalf("repeated loss left cwnd %v, want the 1000-byte MSS floor", d.Cwnd())
	}
}
