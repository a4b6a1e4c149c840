package exp

import (
	"testing"

	"repro/internal/scenario"
)

// accountingScalars are the byte-ledger scalars the AccountingProbe
// surfaces into every preset that carries it. Exact seed-1 values are
// additionally pinned byte-for-byte by the golden envelopes
// (testdata/golden/incast.json, failover.json); these tests pin the
// structural properties that must hold whatever the numbers are.
var accountingScalars = []string{
	"bytes_emitted", "bytes_delivered", "bytes_dropped",
	"bytes_lost_fail", "bytes_inflight", "bytes_residual",
}

func runAccounted(t *testing.T, p Preset) *scenario.Result {
	t.Helper()
	r, err := Run(Spec{Preset: p, Scheme: "powertcp", Seed: 1})
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	for _, s := range accountingScalars {
		if _, ok := r.Scalars[s]; !ok {
			t.Fatalf("%s: result envelope is missing accounting scalar %q", p.Name(), s)
		}
	}
	return r
}

// TestIncastAccounting pins the byte ledger on the incast preset: the
// pulse emits real traffic, nothing is black-holed (the timeline has no
// failures), and the cross-layer conservation identity closes exactly.
func TestIncastAccounting(t *testing.T) {
	r := runAccounted(t, Incast{})
	if r.Scalar("bytes_emitted") <= 0 {
		t.Fatalf("incast emitted no payload: %g", r.Scalar("bytes_emitted"))
	}
	if d := r.Scalar("bytes_delivered"); d <= 0 || d > r.Scalar("bytes_emitted") {
		t.Fatalf("incast delivered %g of %g emitted", d, r.Scalar("bytes_emitted"))
	}
	if l := r.Scalar("bytes_lost_fail"); l != 0 {
		t.Fatalf("incast black-holed %g payload bytes with no link failure in the timeline", l)
	}
	if res := r.Scalar("bytes_residual"); res != 0 {
		t.Fatalf("incast conservation residual %g (emitted %g, delivered %g, dropped %g, inflight %g)",
			res, r.Scalar("bytes_emitted"), r.Scalar("bytes_delivered"),
			r.Scalar("bytes_dropped"), r.Scalar("bytes_inflight"))
	}
}

// TestFailoverAccounting pins the ledger on the failover preset: the
// mid-run spine-link cut black-holes payload (matching the preset's own
// lost_packets scalar), and conservation still closes exactly — lost
// bytes are accounted, not leaked.
func TestFailoverAccounting(t *testing.T) {
	r := runAccounted(t, Failover{})
	if l := r.Scalar("bytes_lost_fail"); l <= 0 {
		t.Fatalf("failover lost %g payload bytes; the link cut should black-hole traffic", l)
	}
	if r.Scalar("lost_packets") <= 0 {
		t.Fatalf("failover lost_packets %g disagrees with bytes_lost_fail %g",
			r.Scalar("lost_packets"), r.Scalar("bytes_lost_fail"))
	}
	if res := r.Scalar("bytes_residual"); res != 0 {
		t.Fatalf("failover conservation residual %g", res)
	}
}

// TestFailoverAccountingPartitionInvariant pins that the ledger sums
// local and remote (cross-partition) counter words consistently: the
// same failover run partitioned over 2 engines reports the identical
// byte ledger.
func TestFailoverAccountingPartitionInvariant(t *testing.T) {
	serial := runAccounted(t, Failover{})
	parted := runAccounted(t, Failover{Partitions: 2})
	for _, s := range accountingScalars {
		if serial.Scalar(s) != parted.Scalar(s) {
			t.Errorf("scalar %s diverges: serial %g, parts=2 %g", s, serial.Scalar(s), parted.Scalar(s))
		}
	}
}
