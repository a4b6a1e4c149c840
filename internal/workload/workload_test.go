package workload

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/units"
)

func TestWebSearchShape(t *testing.T) {
	d := WebSearch()
	rng := rand.New(rand.NewSource(1))
	var short, total int
	var max int64
	for i := 0; i < 100_000; i++ {
		s := d.Sample(rng)
		if s <= 0 || s > 30_000_000 {
			t.Fatalf("sample out of range: %d", s)
		}
		if s <= 10_000 {
			short++
		}
		if s > max {
			max = s
		}
		total++
	}
	// The web-search CDF puts roughly 17% of flows at ≤10KB.
	frac := float64(short) / float64(total)
	if frac < 0.10 || frac < 0.05 || frac > 0.35 {
		t.Fatalf("short-flow fraction = %v", frac)
	}
	if max < 10_000_000 {
		t.Fatalf("heavy tail missing: max sample %d", max)
	}
	// Mean should be heavy-tail dominated: several hundred KB at least.
	if d.Mean() < 300_000 || d.Mean() > 5_000_000 {
		t.Fatalf("mean = %v", d.Mean())
	}
}

// Property: empirical mean of samples approaches the analytic Mean().
func TestCDFMeanConsistent(t *testing.T) {
	d := WebSearch()
	rng := rand.New(rand.NewSource(42))
	var sum float64
	const n = 200_000
	for i := 0; i < n; i++ {
		sum += float64(d.Sample(rng))
	}
	emp := sum / n
	if diff := emp/d.Mean() - 1; diff < -0.1 || diff > 0.1 {
		t.Fatalf("empirical mean %v vs analytic %v", emp, d.Mean())
	}
}

// A one-point CDF is degenerate: every sample lies in (0, size].
func TestFixedDist(t *testing.T) {
	d := NewCDF("fixed", []int64{5000}, []float64{1})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		if got := d.Sample(rng); got < 1 || got > 5000 {
			t.Fatalf("fixed sample = %d", got)
		}
	}
}

func TestPoissonLoadScaling(t *testing.T) {
	gen := func(load float64) []Flow {
		p := &Poisson{
			Load:             load,
			UplinkCapPerRack: 200 * units.Gbps,
			Racks:            4, HostsPerRack: 8,
			Dist: WebSearch(),
			Seed: 7,
		}
		return p.Generate(20 * sim.Millisecond)
	}
	lo, hi := gen(0.2), gen(0.8)
	if len(hi) < 3*len(lo) {
		t.Fatalf("4x load produced %d vs %d flows", len(hi), len(lo))
	}
	var bytes int64
	for _, f := range hi {
		bytes += f.Size
	}
	// Offered rate should be ≈ load × uplink × racks.
	offered := float64(bytes) * 8 / 0.020
	want := 0.8 * 200e9 * 4
	if offered < want/2 || offered > want*2 {
		t.Fatalf("offered %v bps, want ≈%v", offered, want)
	}
}

func TestPoissonCrossRackOnly(t *testing.T) {
	p := &Poisson{
		Load: 0.5, UplinkCapPerRack: 200 * units.Gbps,
		Racks: 4, HostsPerRack: 8, Dist: WebSearch(), Seed: 3,
	}
	for _, f := range p.Generate(10 * sim.Millisecond) {
		if f.Src/8 == f.Dst/8 {
			t.Fatalf("intra-rack flow generated: %d→%d", f.Src, f.Dst)
		}
		if f.Start < 0 || f.Src == f.Dst {
			t.Fatalf("bad flow %+v", f)
		}
	}
}

func TestPoissonDeterministic(t *testing.T) {
	p := &Poisson{Load: 0.4, UplinkCapPerRack: 200 * units.Gbps,
		Racks: 2, HostsPerRack: 4, Dist: WebSearch(), Seed: 11}
	a := p.Generate(5 * sim.Millisecond)
	b := p.Generate(5 * sim.Millisecond)
	if len(a) != len(b) {
		t.Fatal("same seed, different traces")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestIncastStructure(t *testing.T) {
	ic := &Incast{
		RequestRate: 100, RequestSize: 2 << 20, FanIn: 16,
		Racks: 4, HostsPerRack: 8, Seed: 5,
	}
	flows := ic.Generate(100 * sim.Millisecond)
	if len(flows) == 0 {
		t.Fatal("no incast flows")
	}
	// Group by start time: each request is FanIn flows to one dst.
	byStart := map[sim.Time][]Flow{}
	for _, f := range flows {
		byStart[f.Start] = append(byStart[f.Start], f)
	}
	for at, group := range byStart {
		if len(group) != 16 {
			t.Fatalf("request at %v has %d responders", at, len(group))
		}
		dst := group[0].Dst
		var total int64
		seen := map[int]bool{}
		for _, f := range group {
			if f.Dst != dst {
				t.Fatal("mixed destinations in one request")
			}
			if f.Src/8 == dst/8 {
				t.Fatal("responder in requester's rack")
			}
			if seen[f.Src] {
				t.Fatal("duplicate responder")
			}
			seen[f.Src] = true
			total += f.Size
		}
		if total < 2<<20 {
			t.Fatalf("request total %d < requested size", total)
		}
	}
}

// Property: incast FanIn clamps to the servers available outside the
// requester's rack and never loops forever.
func TestIncastFanInClamp(t *testing.T) {
	prop := func(fanRaw uint8) bool {
		ic := &Incast{
			RequestRate: 1000, RequestSize: 1 << 20,
			FanIn: int(fanRaw) + 1,
			Racks: 2, HostsPerRack: 4, Seed: 9,
		}
		flows := ic.Generate(5 * sim.Millisecond)
		byStart := map[sim.Time]int{}
		for _, f := range flows {
			byStart[f.Start]++
		}
		for _, n := range byStart {
			if n > 4 { // only 4 hosts outside the requester's rack
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
