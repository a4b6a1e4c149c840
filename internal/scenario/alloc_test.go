package scenario

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// buildPerHostMallocs bounds the mallocs of one warm pass over a
// 128-host fat-tree, per host, on one engine and on its four pod shards,
// and under HOMA. Such a pass is almost all build: hosts, ports,
// switches, routes and one flow a host, then 20 µs of drive. On one
// engine the pass makes 811 mallocs, 6.3 a host, on amd64 with go1.24:
// ports, timers and flows cost one allocation per object that holds
// state, not one per callback, and flows live in the network's flow
// table, not in per-host maps. It made 1,568 (12.2 a host) with a flow
// map and a receiver map in every host, and 5,017 (39.2 a host) when each
// timer, port hook and FIFO was an allocation of its own. Each bound
// leaves 10%.
var buildPerHostMallocs = []struct {
	name   string
	scheme string
	topo   FatTreeTopology
	bound  float64
}{
	{"one engine", PowerTCP, FatTreeTopology{ServersPerTor: 16}, 7.0},
	// Four pod shards, their agg–core links cut: 940 mallocs, 7.3 a host;
	// 1,700 (13.3 a host) with per-host flow maps, and 1,788 (14.0 a
	// host) before that, when each directed cut had a mailbox, an edge and
	// two closures of its own.
	{"pod shards", PowerTCP, FatTreeTopology{ServersPerTor: 16, Partitions: 2}, 8.1},
	// HOMA on one engine: 961 mallocs, 7.5 a host. It made 6,058 (47.3 a
	// host) when each host kept a send and a receive map of messages, each
	// message a timer and a launch closure, and every data packet's
	// scheduling pass a fresh slice and a sort's closures.
	{"homa", Homa, FatTreeTopology{ServersPerTor: 16}, 8.3},
}

// A warm pass — Prepare, DriveTo 20 µs, Finish, Release, on the scratch
// the previous pass released — allocates at most its bound a host.
func TestBuildAllocationsPerHost(t *testing.T) {
	for _, c := range buildPerHostMallocs {
		t.Run(c.name, func(t *testing.T) { buildAllocations(t, c.scheme, c.topo, c.bound) })
	}
}

func buildAllocations(t *testing.T, scheme string, topo FatTreeTopology, bound float64) {
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
		if hosts != 128 {
			t.Fatalf("fabric has %d hosts, want 128", hosts)
		}
		perHost := float64(mallocs) / float64(hosts)
		t.Logf("warm pass: %d mallocs, %.1f a host", mallocs, perHost)
		if perHost > bound {
			t.Fatalf("warm pass made %d mallocs, %.1f a host; want at most %.1f", mallocs, perHost, bound)
		}
		return
	}
	t.Fatal("the scratch never survived from one pass to the next")
}
