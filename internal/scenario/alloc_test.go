package scenario

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// buildPerHostMallocs bounds the mallocs of one warm pass over a
// 128-host fat-tree, per host. Such a pass is almost all build: hosts,
// ports, switches, routes and one flow a host, then 20 µs of drive. The
// pass makes 1,568 mallocs, 12.2 a host, on amd64 with go1.24: ports,
// timers and flows cost one allocation per object that holds state, not
// one per callback. It made 5,017 (39.2 a host) when each timer, port
// hook and FIFO was an allocation of its own. The bound leaves 10%.
const buildPerHostMallocs = 13.4

// A warm pass — Prepare, DriveTo 20 µs, Finish, Release, on the scratch
// the previous pass released — allocates at most buildPerHostMallocs a
// host.
func TestBuildAllocationsPerHost(t *testing.T) {
	sc := func() Scenario {
		return Scenario{
			Name:     "build-allocs",
			Scheme:   mustScheme(PowerTCP),
			Seed:     1,
			Topology: FatTreeTopology{ServersPerTor: 16},
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
		p.DriveTo(p.Horizon())
		if _, err := p.Finish(); err != nil {
			t.Fatal(err)
		}
		p.Release()
		runtime.ReadMemStats(&m1)
		return lab.scratch, len(lab.Net.Hosts), m1.Mallocs - m0.Mallocs
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
		if perHost > buildPerHostMallocs {
			t.Fatalf("warm pass made %d mallocs, %.1f a host; want at most %.1f", mallocs, perHost, buildPerHostMallocs)
		}
		return
	}
	t.Fatal("the scratch never survived from one pass to the next")
}
