// Package workload generates the paper's traffic (§4.1): the web-search
// flow-size distribution (from the DCTCP measurement study) driven as an
// open-loop Poisson process at a target ToR-uplink load, and the
// synthetic incast workload — a distributed file system where a requester
// fans a query out to servers in other racks that all respond at once.
package workload

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/sim"
	"repro/internal/units"
)

// SizeDist samples flow sizes in bytes.
type SizeDist interface {
	Sample(rng *rand.Rand) int64
	Mean() float64
}

// cdfPoint is a knot of an empirical CDF.
type cdfPoint struct {
	size int64
	f    float64
}

// CDFDist samples by inverse-transform over a piecewise-linear CDF.
type CDFDist struct {
	pts  []cdfPoint
	mean float64
}

// NewCDF builds a distribution from (size, cumulative-probability) knots.
// The first knot's probability mass is uniform on (0, size0].
func NewCDF(sizes []int64, probs []float64) *CDFDist {
	if len(sizes) != len(probs) || len(sizes) == 0 {
		panic("workload: bad CDF spec")
	}
	d := &CDFDist{}
	for i := range sizes {
		d.pts = append(d.pts, cdfPoint{sizes[i], probs[i]})
	}
	sort.Slice(d.pts, func(i, j int) bool { return d.pts[i].f < d.pts[j].f })
	// Mean of the piecewise-linear inverse CDF: each segment contributes
	// Δf × midpoint.
	prevS, prevF := int64(0), 0.0
	for _, p := range d.pts {
		d.mean += (p.f - prevF) * float64(prevS+p.size) / 2
		prevS, prevF = p.size, p.f
	}
	return d
}

// Mean implements SizeDist.
func (d *CDFDist) Mean() float64 { return d.mean }

// Sample implements SizeDist.
func (d *CDFDist) Sample(rng *rand.Rand) int64 {
	u := rng.Float64()
	prevS, prevF := int64(0), 0.0
	for _, p := range d.pts {
		if u <= p.f {
			span := p.f - prevF
			if span <= 0 {
				return p.size
			}
			frac := (u - prevF) / span
			v := float64(prevS) + frac*float64(p.size-prevS)
			if v < 1 {
				v = 1
			}
			return int64(v)
		}
		prevS, prevF = p.size, p.f
	}
	return d.pts[len(d.pts)-1].size
}

// WebSearch returns the web-search flow-size distribution of the DCTCP
// study as used by the HPCC/PowerTCP simulations: heavy-tailed, ~30% of
// flows under 10 KB, ~1.6 MB mean, 30 MB max.
func WebSearch() *CDFDist {
	return NewCDF(
		[]int64{6_000, 13_000, 19_000, 33_000, 53_000, 133_000, 667_000,
			1_333_000, 3_333_000, 6_667_000, 20_000_000, 30_000_000},
		[]float64{0.15, 0.2, 0.3, 0.4, 0.53, 0.6, 0.7,
			0.8, 0.9, 0.95, 0.99, 1.0})
}

// Flow is one generated transfer.
type Flow struct {
	Start sim.Time
	Src   int // host index
	Dst   int
	Size  int64
}

// Poisson generates an open-loop Poisson flow-arrival process.
type Poisson struct {
	// Load is the offered load on the ToR uplinks, 0–1 (§4.1 evaluates
	// 0.2–0.95).
	Load float64
	// UplinkCapPerRack is the aggregate ToR uplink bandwidth of one rack.
	UplinkCapPerRack units.BitRate
	// Racks and HostsPerRack describe the host numbering.
	Racks, HostsPerRack int
	// Dist samples flow sizes.
	Dist SizeDist
	// Seed makes the trace deterministic.
	Seed int64
}

// Generate produces all flows with Start < horizon. Sources are uniform
// over all hosts; destinations uniform over hosts in *other* racks, so
// every generated flow crosses the ToR uplinks the load is defined
// against.
func (p *Poisson) Generate(horizon sim.Duration) []Flow {
	rng := rand.New(rand.NewSource(p.Seed))
	hosts := p.Racks * p.HostsPerRack
	// Aggregate inter-rack byte rate across all racks.
	bytesPerSec := p.Load * float64(p.UplinkCapPerRack) / 8 * float64(p.Racks)
	lambda := bytesPerSec / p.Dist.Mean() // flows per second
	if lambda <= 0 {
		return nil
	}
	var out []Flow
	t := 0.0
	for {
		t += rng.ExpFloat64() / lambda
		at := sim.Duration(t * float64(sim.Second))
		if at >= horizon {
			return out
		}
		src := rng.Intn(hosts)
		dst := src
		for dst/p.HostsPerRack == src/p.HostsPerRack {
			dst = rng.Intn(hosts)
		}
		out = append(out, Flow{
			Start: sim.Time(at),
			Src:   src,
			Dst:   dst,
			Size:  p.Dist.Sample(rng),
		})
	}
}

// Incast generates the synthetic distributed-file-system workload: at
// each request a requester picks FanIn servers uniformly from other
// racks; all respond simultaneously with RequestSize/FanIn bytes.
type Incast struct {
	// RequestRate is requests per second (Fig. 7c/d sweeps 1–16).
	RequestRate float64
	// RequestSize is the total file size per request (Fig. 7e/f: 1–8 MB).
	RequestSize int64
	// FanIn is the number of responding servers per request.
	FanIn int
	// Racks/HostsPerRack describe host numbering.
	Racks, HostsPerRack int
	Seed                int64
}

// Generate produces the response flows for all requests before horizon.
// Responses of one request share a Start time: that is the incast.
func (ic *Incast) Generate(horizon sim.Duration) []Flow {
	rng := rand.New(rand.NewSource(ic.Seed ^ 0x5deece66d))
	hosts := ic.Racks * ic.HostsPerRack
	if ic.RequestRate <= 0 || ic.FanIn <= 0 {
		return nil
	}
	if max := hosts - ic.HostsPerRack; ic.FanIn > max {
		ic.FanIn = max // cannot fan wider than the other racks' servers
	}
	per := int64(math.Ceil(float64(ic.RequestSize) / float64(ic.FanIn)))
	var out []Flow
	t := 0.0
	for {
		t += rng.ExpFloat64() / ic.RequestRate
		at := sim.Duration(t * float64(sim.Second))
		if at >= horizon {
			return out
		}
		req := rng.Intn(hosts)
		reqRack := req / ic.HostsPerRack
		chosen := map[int]bool{}
		for len(chosen) < ic.FanIn {
			s := rng.Intn(hosts)
			if s/ic.HostsPerRack == reqRack || chosen[s] {
				continue
			}
			chosen[s] = true
		}
		// Deterministic iteration order for reproducibility.
		var servers []int
		for s := range chosen {
			servers = append(servers, s)
		}
		sort.Ints(servers)
		for _, s := range servers {
			out = append(out, Flow{Start: sim.Time(at), Src: s, Dst: req, Size: per})
		}
	}
}

// Permutation derives a fixed-point-free host permutation from the
// seed: every host sends to exactly one host and receives from exactly
// one — the canonical multipath stress pattern.
func Permutation(n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x5EED_0F_9E37))
	p := rng.Perm(n)
	for i := 0; i < n; i++ {
		if p[i] == i { // break fixed points deterministically
			j := (i + 1) % n
			p[i], p[j] = p[j], p[i]
		}
	}
	return p
}
