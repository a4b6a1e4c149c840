// Package telemetry implements the in-band network telemetry (INT)
// metadata that PowerTCP and HPCC consume.
//
// Each switch hop appends one HopRecord when a packet is scheduled for
// transmission (at dequeue from the traffic manager, matching the paper's
// Tofino implementation, §3.6). The record carries the egress queue
// length, the cumulative transmitted byte counter of the egress port, a
// timestamp, and the configured link bandwidth — exactly the fields of
// HPCC's INT header that PowerTCP reuses (§3.3, "Feedback").
//
// In the simulator the records travel as exact native Go values. Only
// their size on the wire is modelled: a 32-bit base header plus one
// 64-bit record per hop, carried in a TCP option (§5), which WireLen
// charges to a packet's length.
package telemetry

import (
	"repro/internal/sim"
	"repro/internal/units"
)

// HopRecord is the per-hop egress metadata pushed by a switch.
type HopRecord struct {
	QLen    int64         // egress queue length in bytes at dequeue
	TxBytes uint64        // cumulative bytes transmitted by the egress port
	TS      sim.Time      // timestamp of the dequeue
	Rate    units.BitRate // configured bandwidth of the egress link
}

// PathHopCap is the hop capacity of the round-trip block a packet pool
// moves a packet's stack into when it outgrows the small block its first
// stamp attached. Switches stamp one record per egress over the whole
// round trip; the deepest path in the repository's topologies — fat-tree
// host→ToR→agg→core→agg→ToR→host and back — stamps 10, so 12 leaves
// slack without wasting memory.
const PathHopCap = 12

// Wire sizes of the INT header.
const (
	BaseHeaderLen = 4 // magic+version, hop count
	HopRecordLen  = 8 // packed per-hop record
)

// WireLen returns the encoded size of a header with n hop records.
func WireLen(n int) int { return BaseHeaderLen + n*HopRecordLen }
