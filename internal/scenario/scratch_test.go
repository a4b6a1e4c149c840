package scenario

import (
	"bytes"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// cutShort is a 16-host fat-tree under permutation traffic stopped at
// 30 µs: every flow is mid-window, so the run ends with most of its
// packets queued or on the wire — the case Release has to reclaim.
func cutShort(parts int) Scenario {
	return Scenario{
		Name:     "cut-short",
		Scheme:   mustScheme(PowerTCP),
		Seed:     5,
		Topology: FatTreeTopology{ServersPerTor: 2, Partitions: parts},
		Traffic:  []Traffic{Permutation{}},
		Probes:   []Probe{AccountingProbe{}},
		Until:    30 * sim.Microsecond,
	}
}

// scratchPass is one Prepare/DriveTo/Finish/Release pass and what the
// tests need to know about it.
type scratchPass struct {
	scratch    *runScratch // the scratch the lab ran on
	gets, news uint64      // summed over the fabric's pools
	live       uint64      // packets checked out at the cut
	inflight   float64
	envelope   []byte
}

func runScratchPass(t *testing.T, parts int) scratchPass {
	t.Helper()
	p, err := Prepare(cutShort(parts))
	if err != nil {
		t.Fatal(err)
	}
	lab := p.Env().Lab
	out := scratchPass{scratch: lab.scratch}
	p.DriveTo(p.Horizon())
	res, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range lab.pools() {
		gets, news, _ := pl.Stats()
		out.gets += gets
		out.news += news
		out.live += pl.Live()
	}
	out.inflight = res.Scalar("bytes_inflight")
	var buf bytes.Buffer
	if err := res.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out.envelope = buf.Bytes()
	p.Release()
	return out
}

// warmPair runs the scenario twice and returns both passes once the
// second ran on the scratch the first released. The scratch travels
// through a sync.Pool, which may drop it (and under the race detector
// does, one Put in four), so a pair that lost it is run again.
func warmPair(t *testing.T, parts int) (first, second scratchPass) {
	t.Helper()
	for try := 0; try < 40; try++ {
		first, second = runScratchPass(t, parts), runScratchPass(t, parts)
		if !bytes.Equal(first.envelope, second.envelope) {
			t.Fatalf("parts=%d: pass 2 Result differs from pass 1", parts)
		}
		if second.scratch == first.scratch {
			return first, second
		}
	}
	t.Fatalf("parts=%d: the scratch never survived from one pass to the next", parts)
	return
}

// A second pass over the same scenario allocates no packets: Release
// reclaimed every packet of the first — most of them still in flight at
// the cut — and the Result does not change by a byte.
func TestSecondPassAllocatesNoPackets(t *testing.T) {
	for _, parts := range []int{1, 2} {
		first, second := warmPair(t, parts)
		if first.inflight <= 0 {
			t.Fatalf("parts=%d: nothing in flight at the cut; the scenario tests nothing", parts)
		}
		if second.gets == 0 || second.gets != first.gets {
			t.Fatalf("parts=%d: pass 2 made %d Gets, pass 1 %d", parts, second.gets, first.gets)
		}
		if second.news != 0 {
			t.Fatalf("parts=%d: pass 2 allocated %d of %d packets, want 0", parts, second.news, second.gets)
		}
	}
}

// After a partitioned pass with traffic across the cut, packets sit in
// the free lists of pools that did not make them. Release must still
// hand each one on exactly once: the next run's pools, between them,
// serve every reclaimed packet before allocating, and none twice.
func TestPartitionedReleaseReclaimsEachPacketOnce(t *testing.T) {
	_, second := warmPair(t, 2)
	sc := getScratch()
	for try := 0; sc != second.scratch; try++ { // dropped by the sync.Pool: see warmPair
		if try == 40 {
			t.Fatal("the scratch never survived Release")
		}
		_, second = warmPair(t, 2)
		sc = getScratch()
	}
	if len(sc.slabs) != 2 {
		t.Fatalf("scratch holds %d slab lists after a 2-partition run", len(sc.slabs))
	}
	seen := map[*packet.Packet]bool{}
	for i, slabs := range sc.slabs {
		if len(slabs) == 0 {
			t.Fatalf("partition %d handed on no slabs", i)
		}
		pl := packet.NewPool()
		pl.Adopt(slabs)
		for {
			p := pl.Get()
			if _, news, _ := pl.Stats(); news > 0 {
				break // past the adopted slabs
			}
			if seen[p] {
				t.Fatalf("packet %p reclaimed twice", p)
			}
			seen[p] = true
		}
	}
	if second.live == 0 || uint64(len(seen)) < second.live {
		t.Fatalf("reclaimed %d packets; %d were checked out at the cut", len(seen), second.live)
	}
	// The scratch is not put back: its slabs were carved above.
}
