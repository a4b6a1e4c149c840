package exp

import (
	"bytes"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// The tentpole property of the parallel simulator: a partitioned run is
// byte-identical to the serial run of the same spec at every partition
// count. The canonical event order (at, dsched, phash, k) is a pure
// function of the causal tree, so sharding the fabric across engines —
// any number of them — must not change a single encoded byte, including
// the engine_steps scalar (the partitioned step total equals the serial
// one by construction).
func TestPartitionedMatchesSerial(t *testing.T) {
	specs := map[string]func(parts int) Spec{
		"incast": func(parts int) Spec {
			return Spec{Preset: Incast{Partitions: parts, FanIn: 10, Window: 2 * sim.Millisecond},
				Scheme: scenario.PowerTCP, Seed: 7}
		},
		"permutation": func(parts int) Spec {
			return Spec{Preset: Permutation{Partitions: parts, Routing: "ecmp",
				Window: 2 * sim.Millisecond},
				Scheme: scenario.PowerTCP, Seed: 3}
		},
		// Far-horizon failover: the restore event and the RTOs it triggers
		// live beyond the wheel span, so partitioned runs exercise the
		// overflow heap and Reset's discard path on every engine.
		"failover": func(parts int) Spec {
			return Spec{Preset: Failover{Partitions: parts, ServersPerTor: 4, Flows: 2,
				FailAfter: 2 * sim.Millisecond, RestoreAfter: 12 * sim.Millisecond, Window: 20 * sim.Millisecond},
				Scheme: scenario.PowerTCP, Seed: 21}
		},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			serial := encodeRun(t, spec(0))
			for _, parts := range []int{1, 2, 4, 8} {
				got := encodeRun(t, spec(parts))
				if !bytes.Equal(serial, got) {
					t.Fatalf("parts=%d diverged from serial\nserial: %.300s\nparts:  %.300s",
						parts, serial, got)
				}
			}
		})
	}
}

func encodeRun(t *testing.T, s Spec) []byte {
	t.Helper()
	r, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
