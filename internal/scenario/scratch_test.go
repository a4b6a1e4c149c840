package scenario

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/packet"
	"repro/internal/psim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/units"
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
	cold       bool        // the scratch brought no slabs: every carve is a "new"
	gets, news uint64      // summed over the fabric's pools
	live       uint64      // packets checked out at the cut
	// Hop blocks of both sizes, summed likewise (packet.Pool.HopStats):
	// attached at a first stamp or a move into a round-trip block, of
	// those served from fresh memory, and returned.
	hopGets, hopNews, hopPuts uint64
	inflight                  float64
	envelope                  []byte
	// What the shard engines hold after the drive (sim.Engine.Capacity),
	// and how many packet slabs Release handed to the scratch.
	engEntries, engNodes int
	slabs                int
}

func runScratchPass(t *testing.T, sc Scenario) scratchPass {
	t.Helper()
	p, err := Prepare(sc)
	if err != nil {
		t.Fatal(err)
	}
	lab := p.Env().Lab
	out := scratchPass{scratch: lab.scratch, cold: len(lab.scratch.slabs) == 0}
	p.DriveTo(p.Horizon())
	res, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range lab.Net.Pools {
		gets, news, _ := pl.Stats()
		out.gets += gets
		out.news += news
		out.live += pl.Live()
		hg, hn, hp := pl.HopStats()
		out.hopGets += hg
		out.hopNews += hn
		out.hopPuts += hp
	}
	for _, e := range lab.Net.Engs {
		entries, nodes := e.Capacity()
		out.engEntries += entries
		out.engNodes += nodes
	}
	out.inflight = res.Scalar("bytes_inflight")
	var buf bytes.Buffer
	if err := res.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out.envelope = buf.Bytes()
	p.Release()
	for _, list := range out.scratch.slabs {
		out.slabs += len(list)
	}
	return out
}

// warmPair runs the scenario twice and returns both passes once the
// second ran on the scratch the first released. The scratch travels
// through a sync.Pool, which may drop it (and under the race detector
// does, one Put in four), so a pair that lost it is run again.
func warmPair(t *testing.T, parts int) (first, second scratchPass) {
	t.Helper()
	for try := 0; try < 40; try++ {
		first, second = runScratchPass(t, cutShort(parts)), runScratchPass(t, cutShort(parts))
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

// A second pass over the same scenario allocates no packets and no hop
// blocks: Release reclaimed every one of the first — most of them still
// in flight at the cut — and the Result does not change by a byte.
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
		if second.hopGets == 0 || second.hopGets != first.hopGets {
			t.Fatalf("parts=%d: pass 2 attached %d hop blocks, pass 1 %d", parts, second.hopGets, first.hopGets)
		}
		if second.hopNews != 0 {
			t.Fatalf("parts=%d: pass 2 allocated %d of %d hop blocks, want 0", parts, second.hopNews, second.hopGets)
		}
	}
}

// After a partitioned pass with traffic across the cut, packets and hop
// blocks sit in the free lists of pools that did not make them. Release
// must still hand each one on exactly once: the next run's pools,
// between them, serve every reclaimed packet and block before
// allocating, and none twice.
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
	// The run's four pools, one a pod, wrote the first four lists; a
	// scratch that once served a wider fabric keeps that fabric's other
	// lists behind them.
	const pods = 4
	if len(sc.slabs) < pods {
		t.Fatalf("scratch holds %d slab lists after a %d-pod run", len(sc.slabs), pods)
	}
	seen := map[*packet.Packet]bool{}
	blocks := map[*telemetry.HopRecord]bool{}
	for i, slabs := range sc.slabs[:pods] {
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
		reclaim := func(p *packet.Packet) {
			if blocks[&p.Hops()[0]] {
				t.Fatalf("hop block %p reclaimed twice", &p.Hops()[0])
			}
			blocks[&p.Hops()[0]] = true
		}
		for { // first blocks
			var p packet.Packet
			pl.Stamp(&p, telemetry.HopRecord{})
			if _, news, _ := pl.HopStats(); news > 0 {
				break // past the adopted first-block slabs
			}
			reclaim(&p)
		}
		for { // round-trip blocks: the fifth stamp moves the stack into one
			var p packet.Packet
			for i := 0; i < 4; i++ {
				pl.Stamp(&p, telemetry.HopRecord{})
			}
			_, before, _ := pl.HopStats()
			pl.Stamp(&p, telemetry.HopRecord{})
			if _, news, _ := pl.HopStats(); news > before {
				break // past the adopted round-trip slabs
			}
			reclaim(&p)
		}
	}
	if second.live == 0 || uint64(len(seen)) < second.live {
		t.Fatalf("reclaimed %d packets; %d were checked out at the cut", len(seen), second.live)
	}
	if held := second.hopGets - second.hopPuts; held == 0 || uint64(len(blocks)) < held {
		t.Fatalf("reclaimed %d hop blocks; %d were attached at the cut", len(blocks), held)
	}
	// The scratch is not put back: its slabs were carved above.
}

// A lab of another shape does not cost a sharded fabric its scratch. The
// benchmark parks a two-host star lab on the scratch between passes, and
// powersimd serves a small serial request between two large ones: the
// star has one pool and no shard engine, so it uses the first slab list
// and the control engine and must leave the other shards' lists and
// engines in the scratch. So does a rotor lab, the fourth shape, which
// unlike the parked star moves packets: its two short flows are carved
// from the first shard's slabs, hop blocks too, and handed back whole. The second and third sharded passes then carve
// no packet and no hop block, grow no wheel slot, allocate no event node,
// and the scratch's slab count stays where the first pass put it.
func TestStarLabBetweenShardedPassesKeepsScratch(t *testing.T) {
	star := Scenario{
		Name: "park", Scheme: mustScheme(PowerTCP),
		Topology: StarTopology{Hosts: 2}, Until: sim.Nanosecond,
	}
	rotor := Scenario{
		Name: "rotor", Scheme: mustScheme(PowerTCP),
		Topology: RotorTopology{Tors: 4, ServersPerTor: 2, Weeks: 1},
		Traffic:  []Traffic{RackPairs{FromRack: RackStart(0), ToRack: RackStart(1), Size: 30_000}},
	}
	between := []Scenario{star, rotor, star}
	const shards = 4
try:
	for try := 0; ; try++ {
		if try == 40 {
			t.Fatal("the scratch never survived six passes") // see warmPair
		}
		var sharded []scratchPass
		for i := 0; i < 3; i++ {
			sharded = append(sharded, runScratchPass(t, cutShort(shards)))
			parked := runScratchPass(t, between[i])
			if parked.scratch != sharded[i].scratch || sharded[i].scratch != sharded[0].scratch {
				continue try
			}
			if len(parked.scratch.slabs) != shards || len(parked.scratch.engs) != shards {
				t.Fatalf("after the %s lab the scratch holds %d slab lists and %d shard engines, want %d of each",
					between[i].Name, len(parked.scratch.slabs), len(parked.scratch.engs), shards)
			}
			if i == 1 && (parked.gets == 0 || parked.hopGets == 0 || parked.news != 0 || parked.hopNews != 0) {
				t.Fatalf("the rotor lab made %d Gets, attached %d hop blocks and carved %d packets and %d hop blocks, want traffic and no carving",
					parked.gets, parked.hopGets, parked.news, parked.hopNews)
			}
		}
		first := sharded[0]
		if first.inflight <= 0 || first.engEntries == 0 || first.engNodes == 0 || first.slabs < shards {
			t.Fatalf("pass 1: %v bytes in flight, engines hold %d entries and %d nodes, %d slabs; the scenario tests nothing",
				first.inflight, first.engEntries, first.engNodes, first.slabs)
		}
		for i, p := range sharded[1:] {
			if !bytes.Equal(p.envelope, first.envelope) {
				t.Fatalf("pass %d: Result differs from pass 1", i+2)
			}
			if p.gets != first.gets || p.news != 0 {
				t.Errorf("pass %d: carved %d packets over %d Gets (pass 1 made %d Gets), want 0", i+2, p.news, p.gets, first.gets)
			}
			if p.hopGets != first.hopGets || p.hopNews != 0 {
				t.Errorf("pass %d: carved %d hop blocks over %d attached, want 0", i+2, p.hopNews, p.hopGets)
			}
			if p.engEntries != first.engEntries || p.engNodes != first.engNodes {
				t.Errorf("pass %d: shard engines hold %d entries and %d nodes, pass 1 left %d and %d",
					i+2, p.engEntries, p.engNodes, first.engEntries, first.engNodes)
			}
			if p.slabs != first.slabs {
				t.Errorf("pass %d: the scratch holds %d slabs, after pass 1 %d", i+2, p.slabs, first.slabs)
			}
		}
		return
	}
}

// boxBuffer is where a mailbox's buffer lives and how many messages it
// has room for.
type boxBuffer struct {
	at   uintptr
	room int
}

// boxBuffers reads the buffers of the scratch's carried mailboxes (psim
// keeps them unexported; reflect may look).
func boxBuffers(boxes []psim.Mailbox) []boxBuffer {
	out := make([]boxBuffer, len(boxes))
	for i := range boxes {
		buf := reflect.ValueOf(&boxes[i]).Elem().Field(0)
		out[i] = boxBuffer{buf.Pointer(), buf.Cap()}
	}
	return out
}

// A pod-sharded fabric's sync-edge mailboxes travel with the scratch:
// after a pass the scratch holds one mailbox per edge, and the next pass
// of that fabric on it — right after, or after a star lab, which has no
// edge, ran on it in between — adopts their buffers, builds no fresh ones
// next to them and grows none, and its Result does not change by a byte.
func TestCarriedMailboxesDoNotGrow(t *testing.T) {
	star := Scenario{
		Name: "park", Scheme: mustScheme(PowerTCP),
		Topology: StarTopology{Hosts: 2}, Until: sim.Nanosecond,
	}
	const shards = 4
	for _, between := range []*Scenario{nil, &star} {
	try:
		for try := 0; ; try++ {
			if try == 40 {
				t.Fatal("the scratch never survived from one pass to the next") // see warmPair
			}
			first := runScratchPass(t, cutShort(shards))
			carried := boxBuffers(first.scratch.boxes)
			if between != nil {
				if parked := runScratchPass(t, *between); parked.scratch != first.scratch {
					continue try
				}
			}
			second := runScratchPass(t, cutShort(shards))
			if second.scratch != first.scratch {
				continue try
			}
			var room int
			for _, b := range carried {
				room += b.room
			}
			if len(carried) == 0 || room == 0 {
				t.Fatalf("pass 1 left %d mailboxes with room for %d messages; the scenario tests nothing", len(carried), room)
			}
			if !bytes.Equal(second.envelope, first.envelope) {
				t.Fatal("pass 2: Result differs from pass 1")
			}
			if got := boxBuffers(second.scratch.boxes); !reflect.DeepEqual(got, carried) {
				t.Fatalf("pass 2 left mailbox buffers %v, pass 1 %v; want the same buffers, none grown", got, carried)
			}
			break
		}
	}
}

// TestHopBlocksFollowStamps is the footprint claim in counts: on a
// 256-host permutation fabric cut at 20 µs a packet holds hop storage
// only from its first switch egress until its ACK is consumed — a
// first block, then at most one round-trip block — so the pools carve
// fewer blocks than packets.
func TestHopBlocksFollowStamps(t *testing.T) {
	for _, parts := range []int{1, 2} {
		sc := cutShort(parts)
		sc.Topology = FatTreeTopology{ServersPerTor: 32, Partitions: parts}
		sc.Until = 20 * sim.Microsecond
		var p scratchPass
		for try := 0; !p.cold; try++ {
			if try == 40 {
				t.Fatalf("parts=%d: never ran on a scratch without slabs", parts)
			}
			for len(getScratch().slabs) > 0 { // discard what earlier tests released
			}
			p = runScratchPass(t, sc)
		}
		// Cold pools: news counts carves. Packets still at their sender's
		// NIC have met no switch, and an ACK consumed returned its block.
		held := p.hopGets - p.hopPuts
		if p.hopPuts == 0 || p.hopGets >= p.gets {
			t.Fatalf("parts=%d: %d blocks attached over %d Gets, %d returned; the cut exercises nothing", parts, p.hopGets, p.gets, p.hopPuts)
		}
		if p.hopNews < held {
			t.Fatalf("parts=%d: %d blocks carved but %d held at the cut", parts, p.hopNews, held)
		}
		// One pool reuses every returned block before it carves another
		// (LIFO, and at this cut both free lists are empty): blocks carved
		// = blocks attached − blocks returned. Across a cut a block can
		// wait in one partition's list while the other carves.
		if parts == 1 && p.hopNews != held {
			t.Errorf("parts=1: %d blocks carved, want attached %d − returned %d = %d", p.hopNews, p.hopGets, p.hopPuts, held)
		}
		if p.hopNews >= p.news {
			t.Errorf("parts=%d: %d blocks carved for %d packets carved, want fewer", parts, p.hopNews, p.news)
		}
	}
}

// freshPass runs the scenario on a scratch no lab has used: it discards
// the scratches earlier tests released until the pool makes a new one.
func freshPass(t *testing.T, sc Scenario) scratchPass {
	t.Helper()
	for try := 0; try < 40; try++ {
		for len(getScratch().slabs) > 0 { // discard what earlier tests released
		}
		if p := runScratchPass(t, sc); p.cold {
			return p
		}
	}
	t.Fatal("never ran on a fresh scratch")
	return scratchPass{}
}

// A scratch keeps the arrays a fabric is carved from, and a lab of any
// shape may run on it. Four passes on one scratch — a four-shard
// fat-tree, a smaller leaf-spine, a two-host star, the fat-tree again —
// each give the Result a fresh scratch gives, and each Release leaves
// every kept array all zero. The smaller labs carve from the fat-tree's
// arrays, and Release clears only what a lab used: a mark past the star's
// hosts and ports survives it. So the second fat-tree pass finds every
// array where the first left it, the ports and the flow table's blocks
// too, and allocates none.
func TestScratchArraysAcrossShapes(t *testing.T) {
	leafSpine := Scenario{
		Name: "leaf-spine", Scheme: mustScheme(PowerTCP), Seed: 3,
		Topology: LeafSpineTopology{Leaves: 2, Spines: 2, ServersPerLeaf: 4},
		Traffic:  []Traffic{Permutation{}},
		Probes:   []Probe{AccountingProbe{}},
		Until:    30 * sim.Microsecond,
	}
	star := Scenario{
		Name: "park", Scheme: mustScheme(PowerTCP),
		Topology: StarTopology{Hosts: 2}, Until: sim.Nanosecond,
	}
	shapes := []Scenario{cutShort(4), leafSpine, star, cutShort(4)}
	want := make([][]byte, len(shapes))
	for i, sc := range shapes[:3] {
		want[i] = freshPass(t, sc).envelope
	}
	want[3] = want[0]
try:
	for try := 0; ; try++ {
		if try == 40 {
			t.Fatal("the scratch never survived four passes") // see warmPair
		}
		var s *runScratch
		var first map[string]arrayAt
		for i, sc := range shapes {
			var mark *units.BitRate
			if i == 2 {
				// Past the star's two hosts and four ports.
				mark = lastKeptPortRate(s)
				*mark = 1
				s.hosts[len(s.hosts)-1].OnFlowDone = func(transport.Completion) {}
			}
			p := runScratchPass(t, sc)
			if mark != nil {
				survived := *mark == 1 && s.hosts[len(s.hosts)-1].OnFlowDone != nil
				*mark, s.hosts[len(s.hosts)-1].OnFlowDone = 0, nil
				if p.scratch == s && !survived {
					t.Fatal("the star lab's Release cleared a port or host past the ones it used")
				}
			}
			if i > 0 && p.scratch != s {
				continue try
			}
			s = p.scratch
			if !bytes.Equal(p.envelope, want[i]) {
				t.Fatalf("pass %d (%s): Result differs from a fresh scratch's", i+1, sc.Name)
			}
			kept := keptArrays(s)
			if dirty := nonZero(kept); len(dirty) > 0 {
				t.Fatalf("pass %d (%s): after Release the scratch keeps non-zero %v", i+1, sc.Name, dirty)
			}
			switch i {
			case 0:
				first = whereKept(kept)
				if first["fabric.ports"].len == 0 || first["flows.block[1]"].len == 0 {
					t.Fatalf("pass 1 kept %v; the scenario tests nothing", first)
				}
			case 3:
				got := whereKept(kept)
				for name := range got {
					if got[name] != first[name] {
						t.Errorf("the second fat-tree pass left %s at %v, the first at %v; want the same array", name, got[name], first[name])
					}
				}
				if len(got) != len(first) {
					t.Errorf("the second fat-tree pass left %d arrays, the first %d", len(got), len(first))
				}
			}
		}
		return
	}
}
