package scenario

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// buildPerHostMallocs bounds the mallocs of one warm pass over a
// fat-tree, on one engine and on its four pod shards, and under HOMA.
// Such a pass is almost all build: hosts, ports, switches, routes and
// one flow a host, then 20 µs of drive. A fabric costs allocations per
// switch and per shard pair, and a traffic component per component, but
// no host, port or flow costs one of its own: the hosts come in one
// array, the laws in another, the switches' port lists are carved from a
// third, an in-order receiver keeps its prefix in a number, and the shard
// pairs' mailboxes ride with the scratch. So the test runs two sizes, 128
// and 384 hosts, and bounds both the 128-host pass a host and what each
// host past 128 adds.
//
// On amd64 with go1.24 the 128-host pass makes 231 mallocs on one engine
// (1.8 a host), 297 on pod shards (2.3) and 317 under HOMA (2.5); each
// bound leaves 10%. Before, it made 811, 940 and 961 (6.3, 7.3 and 7.5 a
// host), with a host, a law and a receiver's first span an allocation
// each, and every switch growing its own port list; 1,568, 1,700 and
// 6,058 with per-host flow maps; and 5,017 on one engine when each timer,
// port hook and FIFO was an allocation of its own. What the larger fabric
// adds is the flow table's blocks, one per 16 flows, about 0.05 a host;
// under HOMA, each receiving host's first live-message list (1.07 a host).
var buildPerHostMallocs = []struct {
	name   string
	scheme string
	topo   FatTreeTopology
	bound  float64 // mallocs a host at 128 hosts
	growth float64 // mallocs each host past 128 may add, up to 384
}{
	{"one engine", PowerTCP, FatTreeTopology{}, 2.0, 0.1},
	// Four pod shards, their agg–core links cut.
	{"pod shards", PowerTCP, FatTreeTopology{Partitions: 2}, 2.6, 0.1},
	{"homa", Homa, FatTreeTopology{}, 2.7, 1.2},
}

// A warm pass — Prepare, DriveTo 20 µs, Finish, Release, on the scratch
// the previous pass released — allocates at most its bound a host, and a
// larger fabric's pass at most its growth more for each host it adds.
func TestBuildAllocationsPerHost(t *testing.T) {
	for _, c := range buildPerHostMallocs {
		t.Run(c.name, func(t *testing.T) {
			var mallocs [2]uint64
			var hosts [2]int
			for i, spt := range []int{16, 48} {
				topo := c.topo
				topo.ServersPerTor = spt
				mallocs[i], hosts[i] = warmPassMallocs(t, c.scheme, topo)
				t.Logf("%d hosts: warm pass: %d mallocs, %.2f a host", hosts[i], mallocs[i], float64(mallocs[i])/float64(hosts[i]))
			}
			if hosts != [2]int{128, 384} {
				t.Fatalf("fabrics have %v hosts, want 128 and 384", hosts)
			}
			if perHost := float64(mallocs[0]) / float64(hosts[0]); perHost > c.bound {
				t.Errorf("128-host pass made %d mallocs, %.2f a host; want at most %.1f", mallocs[0], perHost, c.bound)
			}
			if grew := (float64(mallocs[1]) - float64(mallocs[0])) / float64(hosts[1]-hosts[0]); grew > c.growth {
				t.Errorf("each host past 128 added %.2f mallocs; want at most %.2f", grew, c.growth)
			}
		})
	}
}

// warmPassMallocs returns the mallocs of one warm pass over the fabric,
// and its host count.
func warmPassMallocs(t *testing.T, scheme string, topo FatTreeTopology) (mallocs uint64, hosts int) {
	sc := func() Scenario {
		return Scenario{
			Name:     "build-allocs",
			Scheme:   mustScheme(scheme),
			Seed:     1,
			Topology: topo,
			Traffic:  []Traffic{Permutation{}},
			Until:    20 * sim.Microsecond,
		}
	}
	pass := func() (s *runScratch, hosts int, mallocs uint64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		p, err := Prepare(sc())
		if err != nil {
			t.Fatal(err)
		}
		lab := p.Env().Lab
		s = lab.scratch // Release clears it
		p.DriveTo(p.Horizon())
		if _, err := p.Finish(); err != nil {
			t.Fatal(err)
		}
		p.Release()
		runtime.ReadMemStats(&m1)
		return s, len(lab.Net.Hosts), m1.Mallocs - m0.Mallocs
	}
	// The scratch travels through a sync.Pool, which may drop it; a pass
	// that did not run on the one the previous pass released is not warm.
	prev, _, _ := pass()
	for try := 0; try < 40; try++ {
		s, hosts, mallocs := pass()
		if s != prev {
			prev = s
			continue
		}
		return mallocs, hosts
	}
	t.Fatal("the scratch never survived from one pass to the next")
	return 0, 0
}
