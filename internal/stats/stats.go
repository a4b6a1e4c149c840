// Package stats provides the metrics the evaluation reports: percentile
// distributions (99.9p FCT slowdowns), CDFs of buffer occupancy, time
// series of throughput and queue length, and flow-size binning matching
// the paper's figures.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/sim"
	"repro/internal/units"
)

// Dist accumulates samples and answers percentile queries.
type Dist struct {
	vals   []float64
	sorted bool
}

// Add appends one sample.
func (d *Dist) Add(v float64) {
	d.vals = append(d.vals, v)
	d.sorted = false
}

// Count returns the number of samples.
func (d *Dist) Count() int { return len(d.vals) }

// Presize grows the sample buffer to hold n values without further
// allocation. Experiments that know their sample count up front (period
// samplers, per-flow collectors) size the distribution once instead of
// doubling through appends.
func (d *Dist) Presize(n int) {
	if n > len(d.vals) {
		d.vals = slices.Grow(d.vals, n-len(d.vals))
	}
}

func (d *Dist) sortIfNeeded() {
	if !d.sorted {
		sort.Float64s(d.vals)
		d.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0,100]) using
// nearest-rank on the sorted samples; 0 when empty.
func (d *Dist) Percentile(p float64) float64 {
	if len(d.vals) == 0 {
		return 0
	}
	d.sortIfNeeded()
	if p <= 0 {
		return d.vals[0]
	}
	// Multiply before dividing: for integer p the product p*n is exact
	// in float64 and the single division is correctly rounded, so Ceil
	// lands on the true nearest rank. Dividing first (p/100*n) makes
	// p/100 inexact and can overshoot the rank by one at exact
	// boundaries, e.g. p=28, n=25: 0.28*25 = 7.000000000000001.
	rank := int(math.Ceil(p*float64(len(d.vals))/100)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(d.vals) {
		rank = len(d.vals) - 1
	}
	return d.vals[rank]
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	V float64
	F float64
}

// CDF returns an n-point empirical CDF.
func (d *Dist) CDF(n int) []CDFPoint {
	if len(d.vals) == 0 || n < 2 {
		return nil
	}
	d.sortIfNeeded()
	out := make([]CDFPoint, 0, n)
	for i := 0; i < n; i++ {
		f := float64(i) / float64(n-1)
		idx := int(f * float64(len(d.vals)-1))
		out = append(out, CDFPoint{V: d.vals[idx], F: f})
	}
	return out
}

// IdealFCT is the completion time of a flow of the given size on an idle
// path: one base RTT of latency plus serialization at the host rate
// (including per-MSS header overhead).
func IdealFCT(size int64, rate units.BitRate, baseRTT sim.Duration) sim.Duration {
	pkts := (size + 999) / 1000
	wire := size + pkts*48
	return baseRTT + rate.TxTime(wire)
}

// Slowdown is FCT normalized by the ideal FCT (≥ 1 up to noise).
func Slowdown(fct sim.Duration, size int64, rate units.BitRate, baseRTT sim.Duration) float64 {
	return float64(fct) / float64(IdealFCT(size, rate, baseRTT))
}

// FlowSizeBins are the x-axis buckets of Fig. 6 (upper bounds, bytes).
var FlowSizeBins = []int64{5_000, 20_000, 50_000, 100_000, 400_000, 800_000, 5_000_000, 30_000_000}

// ShortFlowMax and LongFlowMin classify flows as in §4.2 (short <10KB;
// long >1MB).
const (
	ShortFlowMax = 10_000
	LongFlowMin  = 1_000_000
)

// BinnedSlowdowns groups flow slowdowns into FlowSizeBins.
type BinnedSlowdowns struct {
	Bins []Dist // parallel to FlowSizeBins
}

// NewBinnedSlowdowns allocates the standard bins.
func NewBinnedSlowdowns() *BinnedSlowdowns {
	return &BinnedSlowdowns{Bins: make([]Dist, len(FlowSizeBins))}
}

// Add records a flow's slowdown in its size bin.
func (b *BinnedSlowdowns) Add(size int64, slowdown float64) {
	for i, hi := range FlowSizeBins {
		if size <= hi {
			b.Bins[i].Add(slowdown)
			return
		}
	}
	b.Bins[len(b.Bins)-1].Add(slowdown)
}

// Row formats one figure row: per-bin p-th percentile slowdown.
func (b *BinnedSlowdowns) Row(p float64) []float64 {
	out := make([]float64, len(b.Bins))
	for i := range b.Bins {
		out[i] = b.Bins[i].Percentile(p)
	}
	return out
}

// String renders a compact table of the 99.9p row.
func (b *BinnedSlowdowns) String() string {
	s := ""
	for i, v := range b.Row(99.9) {
		s += fmt.Sprintf("≤%s:%.1f ", SizeLabel(FlowSizeBins[i]), v)
	}
	return s
}

// SizeLabel renders 5_000 → "5K", 5_000_000 → "5M".
func SizeLabel(n int64) string {
	switch {
	case n >= 1_000_000:
		return fmt.Sprintf("%dM", n/1_000_000)
	case n >= 1_000:
		return fmt.Sprintf("%dK", n/1_000)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// Gbps converts a byte count over a duration into Gbit/s.
func Gbps(bytes int64, d sim.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) * 8 / d.Seconds() / 1e9
}
