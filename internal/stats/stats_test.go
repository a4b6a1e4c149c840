package stats

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/units"
)

func TestPercentiles(t *testing.T) {
	var d Dist
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	cases := []struct {
		p    float64
		want float64
	}{{50, 50}, {99, 99}, {100, 100}, {0, 1}, {99.9, 100}}
	for _, c := range cases {
		if got := d.Percentile(c.p); got != c.want {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if d.Mean() != 50.5 {
		t.Errorf("mean = %v", d.Mean())
	}
	if d.Max() != 100 {
		t.Errorf("max = %v", d.Max())
	}
}

func TestEmptyDist(t *testing.T) {
	var d Dist
	if d.Percentile(99) != 0 || d.Mean() != 0 || d.Max() != 0 || d.Count() != 0 {
		t.Fatal("empty dist must return zeros")
	}
	if d.CDF(10) != nil {
		t.Fatal("empty CDF must be nil")
	}
}

func TestCDFMonotone(t *testing.T) {
	var d Dist
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		d.Add(rng.Float64() * 100)
	}
	cdf := d.CDF(50)
	if len(cdf) != 50 {
		t.Fatalf("points = %d", len(cdf))
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].V < cdf[i-1].V || cdf[i].F <= cdf[i-1].F {
			t.Fatal("CDF not monotone")
		}
	}
	if cdf[len(cdf)-1].F != 1 {
		t.Fatal("CDF does not reach 1")
	}
}

// Property: Percentile matches a reference nearest-rank implementation.
func TestPercentileModelProperty(t *testing.T) {
	prop := func(vals []float64, pRaw uint8) bool {
		if len(vals) == 0 {
			return true
		}
		var d Dist
		for _, v := range vals {
			d.Add(v)
		}
		p := float64(pRaw % 101)
		got := d.Percentile(p)
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		rank := 0
		if p > 0 {
			rank = int(float64(len(sorted))*p/100+0.999999) - 1
			if rank >= len(sorted) {
				rank = len(sorted) - 1
			}
			if rank < 0 {
				rank = 0
			}
		}
		return got == sorted[rank]
	}
	// Fixed seed: the property run must be reproducible in CI. The
	// boundary cases the randomized seed used to trip over are pinned
	// explicitly in TestPercentileRankBoundary below.
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPercentileRankBoundary pins the rank computation at exact
// percentile boundaries. Computing ceil(p/100*n) overshot the nearest
// rank by one whenever p/100 is inexact and p*n/100 is an integer
// (e.g. p=28, n=25: 0.28*25 rounds to 7.000000000000001, so Ceil gave
// rank 8 instead of 7); Percentile now multiplies before dividing.
func TestPercentileRankBoundary(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64 // value at the correct nearest rank, samples 1..n
	}{
		{25, 28, 7},  // 28% of 25 = 7 exactly
		{25, 56, 14}, // 56% of 25 = 14 exactly
		{50, 14, 7},
		{100, 7, 7},
		{100, 14, 14},
	}
	for _, c := range cases {
		var d Dist
		for i := 1; i <= c.n; i++ {
			d.Add(float64(i))
		}
		if got := d.Percentile(c.p); got != c.want {
			t.Errorf("P%v of 1..%d = %v, want %v", c.p, c.n, got, c.want)
		}
	}
}

func TestSlowdown(t *testing.T) {
	// A flow finishing in exactly the ideal time has slowdown 1.
	size := int64(100_000)
	rate := 25 * units.Gbps
	rtt := 20 * sim.Microsecond
	ideal := IdealFCT(size, rate, rtt)
	if got := Slowdown(ideal, size, rate, rtt); got != 1 {
		t.Fatalf("slowdown at ideal = %v", got)
	}
	if got := Slowdown(3*ideal, size, rate, rtt); got != 3 {
		t.Fatalf("slowdown at 3x = %v", got)
	}
}

func TestBinnedSlowdowns(t *testing.T) {
	b := NewBinnedSlowdowns()
	b.Add(1_000, 2)      // ≤5K bin
	b.Add(1_500, 4)      // ≤5K bin
	b.Add(600_000, 7)    // ≤800K bin
	b.Add(99_000_000, 9) // beyond last bin → clamped into it
	row := b.Row(100)
	if row[0] != 4 {
		t.Fatalf("bin 5K p100 = %v", row[0])
	}
	if row[5] != 7 {
		t.Fatalf("bin 800K = %v", row[5])
	}
	if row[len(row)-1] != 9 {
		t.Fatalf("last bin = %v", row[len(row)-1])
	}
	if SizeLabel(FlowSizeBins[0]) != "5K" || SizeLabel(30_000_000) != "30M" {
		t.Fatal("size labels broken")
	}
}

func TestGbps(t *testing.T) {
	// 12.5 MB in 1 ms = 100 Gbps.
	if got := Gbps(12_500_000, sim.Millisecond); got < 99.9 || got > 100.1 {
		t.Fatalf("Gbps = %v", got)
	}
	if Gbps(100, 0) != 0 {
		t.Fatal("zero duration must yield 0")
	}
}

// Presize must make accumulation allocation-free and Reset must keep the
// warmed buffer — the telemetry-reuse invariant PERF.md documents.
func TestDistPresizeResetAllocs(t *testing.T) {
	var d Dist
	d.Presize(256)
	allocs := testing.AllocsPerRun(10, func() {
		d.Reset()
		for i := 0; i < 256; i++ {
			d.Add(float64(i % 7))
		}
		_ = d.Percentile(99)
	})
	if allocs > 0.5 {
		t.Fatalf("presized Dist allocates %.2f per run, want 0", allocs)
	}
	// Presize preserves existing samples.
	d.Reset()
	d.Add(1)
	d.Add(2)
	d.Presize(1024)
	if d.Count() != 2 || d.Mean() != 1.5 {
		t.Fatalf("Presize lost samples: count=%d mean=%v", d.Count(), d.Mean())
	}
}
