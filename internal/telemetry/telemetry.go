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
// In the simulator the records travel as native Go values for speed, but
// the package also provides the on-the-wire codec of the paper's switch
// component: a 32-bit base header plus one 64-bit record per hop, carried
// in TCP option 36 (§5). The codec quantizes fields the way a real
// pipeline must; it is the reference HopRecord.Quantize (and so the
// switches' quantized-INT mode) is held to by the property tests.
package telemetry

import (
	"encoding/binary"
	"errors"
	"fmt"

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

// MaxHops is the largest round-trip path length the wire format supports:
// TCP options are limited to 40 bytes, so a 4-byte base header leaves room
// for four 8-byte hop records (§5 of the paper notes the same limit).
const MaxHops = 4

// PathHopCap is the hop capacity of the round-trip block a packet pool
// moves a packet's stack into when it outgrows the small block its first
// stamp attached. The simulator's native (non-wire) mode stamps one
// record per switch egress over the whole round trip; the deepest path
// in the repository's topologies — fat-tree host→ToR→agg→core→agg→ToR→
// host and back — stamps 10, so 12 leaves slack without wasting memory.
const PathHopCap = 12

// Wire format constants.
const (
	BaseHeaderLen = 4                   // magic+version, hop count
	HopRecordLen  = 8                   // packed per-hop record
	OptionKind    = 36                  // unused TCP option number claimed in §5
	wireMagic     = 0xB1                // identifies the option payload
	qlenUnit      = 64                  // bytes per QLen unit (16-bit field → 4 MiB max)
	txUnit        = 256                 // bytes per TxBytes unit (20-bit wrapping field)
	tsUnit        = sim.Nanosecond * 64 // 64 ns ticks (16-bit wrapping field)
)

// Quantization limits exposed for tests.
const (
	QLenMax      = qlenUnit * (1<<16 - 1)
	TxWrapBytes  = txUnit * (1 << 20)
	TSWrapPeriod = sim.Duration(tsUnit) * (1 << 16)
)

// rateCodes is the codebook for the 8-bit bandwidth field. Real INT
// deployments carry a code, not the raw bps value; every rate used in the
// paper's topologies appears here.
var rateCodes = []units.BitRate{
	0,
	1 * units.Gbps,
	10 * units.Gbps,
	25 * units.Gbps,
	40 * units.Gbps,
	50 * units.Gbps,
	100 * units.Gbps,
	200 * units.Gbps,
	400 * units.Gbps,
}

// RateCode returns the codebook index for r, or an error if the rate is
// not representable on the wire.
func RateCode(r units.BitRate) (uint8, error) {
	for i, c := range rateCodes {
		if c == r {
			return uint8(i), nil
		}
	}
	return 0, fmt.Errorf("telemetry: bandwidth %v has no wire code", r)
}

// RateFromCode is the inverse of RateCode.
func RateFromCode(c uint8) (units.BitRate, error) {
	if int(c) >= len(rateCodes) {
		return 0, fmt.Errorf("telemetry: unknown bandwidth code %d", c)
	}
	return rateCodes[c], nil
}

// Quantize returns the record as it would survive a wire round-trip:
// QLen floored to its unit and clamped, TxBytes floored and wrapped, TS
// floored and wrapped. Algorithms are tested against both exact and
// quantized records.
func (h HopRecord) Quantize() HopRecord {
	q := h.QLen / qlenUnit * qlenUnit
	if q > QLenMax {
		q = QLenMax
	}
	return HopRecord{
		QLen:    q,
		TxBytes: h.TxBytes % uint64(TxWrapBytes) / txUnit * txUnit,
		TS:      sim.Time(sim.Duration(h.TS) % TSWrapPeriod / sim.Duration(tsUnit) * sim.Duration(tsUnit)),
		Rate:    h.Rate,
	}
}

// Errors returned by the codec.
var (
	ErrTooManyHops = errors.New("telemetry: more hops than the wire format allows")
	ErrShortBuffer = errors.New("telemetry: buffer too short")
	ErrBadHeader   = errors.New("telemetry: malformed base header")
)

// WireLen returns the encoded size of a header with n hop records.
func WireLen(n int) int { return BaseHeaderLen + n*HopRecordLen }

// Marshal encodes hops into the 32-bit base + 64-bit-per-hop format.
//
// Per-hop layout (big endian, 64 bits):
//
//	bits 63..48  qlen      (16 bits, 64 B units, saturating)
//	bits 47..28  txBytes   (20 bits, 256 B units, wrapping)
//	bits 27..12  timestamp (16 bits, 64 ns ticks, wrapping)
//	bits 11..4   bandwidth code (8 bits)
//	bits  3..0   reserved
func Marshal(hops []HopRecord) ([]byte, error) {
	if len(hops) > MaxHops {
		return nil, ErrTooManyHops
	}
	buf := make([]byte, WireLen(len(hops)))
	buf[0] = wireMagic
	buf[1] = 1 // version
	buf[2] = uint8(len(hops))
	buf[3] = OptionKind
	for i, h := range hops {
		code, err := RateCode(h.Rate)
		if err != nil {
			return nil, err
		}
		q := h.QLen / qlenUnit
		if q > 1<<16-1 {
			q = 1<<16 - 1
		}
		if q < 0 {
			q = 0
		}
		tx := h.TxBytes / txUnit % (1 << 20)
		ts := uint64(sim.Duration(h.TS)/sim.Duration(tsUnit)) % (1 << 16)
		var w uint64
		w |= uint64(q) << 48
		w |= tx << 28
		w |= ts << 12
		w |= uint64(code) << 4
		binary.BigEndian.PutUint64(buf[BaseHeaderLen+i*HopRecordLen:], w)
	}
	return buf, nil
}

// Unmarshal decodes a header produced by Marshal. Timestamps and byte
// counters come back modulo their wrap periods; consumers difference
// successive records, so wrapping is harmless as long as samples are
// closer together than the wrap period (4.2 ms for TS).
func Unmarshal(buf []byte) ([]HopRecord, error) {
	if len(buf) < BaseHeaderLen {
		return nil, ErrShortBuffer
	}
	if buf[0] != wireMagic || buf[1] != 1 || buf[3] != OptionKind {
		return nil, ErrBadHeader
	}
	n := int(buf[2])
	if n > MaxHops {
		return nil, ErrBadHeader
	}
	if len(buf) < WireLen(n) {
		return nil, ErrShortBuffer
	}
	hops := make([]HopRecord, n)
	for i := range hops {
		w := binary.BigEndian.Uint64(buf[BaseHeaderLen+i*HopRecordLen:])
		rate, err := RateFromCode(uint8(w >> 4 & 0xFF))
		if err != nil {
			return nil, err
		}
		hops[i] = HopRecord{
			QLen:    int64(w>>48) * qlenUnit,
			TxBytes: (w >> 28 & (1<<20 - 1)) * txUnit,
			TS:      sim.Time(sim.Duration(w>>12&0xFFFF) * sim.Duration(tsUnit)),
			Rate:    rate,
		}
	}
	return hops, nil
}
