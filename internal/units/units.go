// Package units provides bandwidth and data-size arithmetic shared by the
// simulator and the congestion-control algorithms.
//
// All conversions between bytes, rates, and durations live here so that
// the rest of the codebase never multiplies "8" or "1e12" inline. Rates
// that are whole multiples of 1 Mbps (every rate in the paper) convert to
// and from picoseconds exactly, keeping the simulation deterministic.
package units

import (
	"fmt"

	"repro/internal/sim"
)

// BitRate is a link or pacing rate in bits per second.
type BitRate int64

// Common rates.
const (
	BitPerSecond BitRate = 1
	Kbps                 = 1000 * BitPerSecond
	Mbps                 = 1000 * Kbps
	Gbps                 = 1000 * Mbps
)

// String formats the rate with its natural unit, e.g. "25Gbps".
func (r BitRate) String() string {
	switch {
	case r >= Gbps && r%Gbps == 0:
		return fmt.Sprintf("%dGbps", r/Gbps)
	case r >= Mbps && r%Mbps == 0:
		return fmt.Sprintf("%dMbps", r/Mbps)
	case r >= Kbps && r%Kbps == 0:
		return fmt.Sprintf("%dKbps", r/Kbps)
	default:
		return fmt.Sprintf("%dbps", int64(r))
	}
}

// BytesPerSec returns the rate in bytes per second as a float.
func (r BitRate) BytesPerSec() float64 { return float64(r) / 8 }

// InGbps returns the rate in gigabits per second as a float — the unit
// figures and probes report in.
func (r BitRate) InGbps() float64 { return float64(r) / float64(Gbps) }

// TxTime returns the time to serialize n bytes onto a link of rate r.
// For rates that are whole Mbps the result is exact integer math
// (n·8·10⁶ ps-bits divided by the rate in Mbps); otherwise it falls back
// to float math, which is still accurate to well under a picosecond for
// realistic packet sizes.
func (r BitRate) TxTime(n int64) sim.Duration {
	if r <= 0 {
		panic("units: TxTime on non-positive rate")
	}
	if r%Mbps == 0 {
		// ps = bits * 1e12 / bps = n*8 * 1e6 / (bps/1e6)
		return sim.Duration(n * 8 * 1_000_000 / int64(r/Mbps))
	}
	return sim.Duration(float64(n) * 8 * 1e12 / float64(r))
}

// Bytes returns how many whole bytes r transmits in d.
func (r BitRate) Bytes(d sim.Duration) int64 {
	if d <= 0 {
		return 0
	}
	if r%Mbps == 0 {
		return int64(d) * int64(r/Mbps) / (8 * 1_000_000)
	}
	return int64(float64(r) / 8 * d.Seconds())
}

// BDP returns the bandwidth-delay product in bytes for round-trip rtt.
func (r BitRate) BDP(rtt sim.Duration) int64 { return r.Bytes(rtt) }

// MinRate/MaxRate clamp helpers.
func MinRate(a, b BitRate) BitRate {
	if a < b {
		return a
	}
	return b
}

func MaxRate(a, b BitRate) BitRate {
	if a > b {
		return a
	}
	return b
}
