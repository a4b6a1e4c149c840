package main

import (
	"runtime"
	"sort"
	"time"
)

// median returns the middle of v (the mean of the middle two for an even
// count) without reordering the caller's slice. Every timed quantity the
// benchmark reports goes through it: on this class of host the median of
// back-to-back identical runs is about twice as steady as their minimum.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p*float64(len(sorted))+99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

const mb = 1 << 20

// memMark is the allocator state at one instant; the difference of two
// marks is what the code between them allocated and how often the
// collector ran.
type memMark struct {
	totalAlloc uint64
	mallocs    uint64
	numGC      uint32
	pauseNs    uint64
}

func markMem() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{m.TotalAlloc, m.Mallocs, m.NumGC, m.PauseTotalNs}
}

// liveHeapMB forces a collection and returns what survived it. With
// pools set it collects twice: one collection only moves what sync.Pools
// hold (net/http's buffers, the server's scratch labs) to their victim
// caches, where it still counts as live and varies from run to run by a
// quarter of serve-mix's 9 MB heap.
func liveHeapMB(pools bool) float64 {
	runtime.GC()
	if pools {
		runtime.GC()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / mb
}

// calibRef is what the calibration loop takes on the host the benchmark
// was designed on while that host is quiet. Host-time metrics are
// reported in reference seconds: wall seconds × calibRef ÷ what the loop
// took right around the measurement.
const calibRef = 0.280

// hostClock brackets measurements with samples of a calibration loop.
// tick takes a sample; ref converts a wall interval that lies between the
// last two samples into reference seconds.
//
// The loop is fixed pure Go — integer mixing and dependent loads over a
// 4 MiB table: no repo code, no allocation. It exists because this class
// of host changes speed under the benchmark. Measured here: the same
// websearch64 drive took 2.3 s, then 4.0 s for a minute and a half, then
// 2.3 s again, with nothing else running in the guest, and the loop moved
// from its quiet time to 1.8× and back with it (correlation 0.95 over 40
// drives). No number of repetitions inside one run averages that out, and
// ten runs spread 17–37% on wall time. Divided by the loop taken just
// before and after it, the same series spreads 8%. The loop is not a
// metric; it is the unit.
type hostClock struct {
	iters   int
	table   []uint64
	sink    uint64 // keeps the loop's result alive
	samples []float64
}

// calibIters is the loop's length; calibRef is its time at that length.
const calibIters = 10_000_000

func newHostClock(smoke bool) *hostClock {
	c := &hostClock{iters: calibIters, table: make([]uint64, 1<<19)}
	if smoke {
		c.iters /= 20
	}
	for i := range c.table {
		c.table[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	c.loop() // fault the table in
	c.tick()
	return c
}

// loop runs the calibration loop once and returns its seconds, scaled to
// the full length.
func (c *hostClock) loop() float64 {
	start := time.Now()
	x := uint64(1)
	mask := uint64(len(c.table) - 1)
	for i := 0; i < c.iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		x += c.table[x&mask]
	}
	c.sink = x
	return time.Since(start).Seconds() * calibIters / float64(c.iters)
}

func (c *hostClock) tick() { c.samples = append(c.samples, c.loop()) }

func (c *hostClock) ref(wall float64) float64 {
	n := len(c.samples)
	return wall * calibRef / ((c.samples[n-2] + c.samples[n-1]) / 2)
}
