package units

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestTxTimeExact(t *testing.T) {
	cases := []struct {
		rate  BitRate
		bytes int64
		want  sim.Duration
	}{
		{100 * Gbps, 1048, 83840 * sim.Picosecond}, // 1048B at 100G = 83.84ns
		{25 * Gbps, 1048, 335360 * sim.Picosecond},
		{100 * Gbps, 1, 80 * sim.Picosecond},
		{1 * Gbps, 1500, 12 * sim.Microsecond},
		{10 * Mbps, 1250, sim.Millisecond},
	}
	for _, c := range cases {
		if got := c.rate.TxTime(c.bytes); got != c.want {
			t.Errorf("TxTime(%v, %d) = %v, want %v", c.rate, c.bytes, got, c.want)
		}
	}
}

func TestBDP(t *testing.T) {
	// 100Gbps × 20µs base RTT = 250000 bytes.
	if got := (100 * Gbps).BDP(20 * sim.Microsecond); got != 250000 {
		t.Fatalf("BDP = %d, want 250000", got)
	}
	// 25Gbps × 24µs = 75000 bytes.
	if got := (25 * Gbps).BDP(24 * sim.Microsecond); got != 75000 {
		t.Fatalf("BDP = %d, want 75000", got)
	}
}

func TestString(t *testing.T) {
	for _, c := range []struct {
		r BitRate
		s string
	}{
		{25 * Gbps, "25Gbps"}, {100 * Mbps, "100Mbps"}, {5 * Kbps, "5Kbps"}, {7, "7bps"},
	} {
		if got := c.r.String(); got != c.s {
			t.Errorf("%d.String() = %q, want %q", int64(c.r), got, c.s)
		}
	}
}

// Property: Bytes(TxTime(n)) recovers n up to the 1-byte floor loss of
// integer division, and exactly when the rate's Mbps value divides the
// bit count (the integer fast path must be self-consistent).
func TestTxTimeBytesRoundTrip(t *testing.T) {
	prop := func(nRaw uint32, rRaw uint16) bool {
		n := int64(nRaw%100_000) + 1
		r := BitRate(int64(rRaw%1000)+1) * 100 * Mbps
		d := r.TxTime(n)
		got := r.Bytes(d)
		if n*8*1_000_000%int64(r/Mbps) == 0 {
			return got == n
		}
		return got == n || got == n-1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: TxTime is additive: TxTime(a)+TxTime(b) == TxTime(a+b) on the
// exact integer path.
func TestTxTimeAdditive(t *testing.T) {
	prop := func(a, b uint16, rRaw uint8) bool {
		r := BitRate(int64(rRaw)+1) * Gbps
		// Use byte counts divisible by the rate to stay on exact values.
		x, y := int64(a), int64(b)
		return r.TxTime(x)+r.TxTime(y) == r.TxTime(x+y) ||
			// integer floor division may lose at most 1ps per term
			r.TxTime(x)+r.TxTime(y)+2 >= r.TxTime(x+y)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroAndNegativeDurations(t *testing.T) {
	if got := (25 * Gbps).Bytes(0); got != 0 {
		t.Errorf("Bytes(0) = %d", got)
	}
	if got := (25 * Gbps).Bytes(-sim.Microsecond); got != 0 {
		t.Errorf("Bytes(<0) = %d", got)
	}
}
