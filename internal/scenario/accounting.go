package scenario

// ByteAccounting is the network-wide payload-byte ledger at a point in
// time: every payload byte an endpoint emitted is — exactly — either
// delivered to an endpoint, dropped at a switch's shared-buffer
// admission, lost on a downed wire, or still inside the fabric (queued
// at a port or serialized onto a wire). The words are measured at
// independent layers (NIC admission, host receive bookkeeping, per-port
// drop/loss counters), so Residual() == 0 is a genuine cross-layer
// conservation check rather than an arithmetic identity — the central
// invariant of internal/fuzzlab.
type ByteAccounting struct {
	// Emitted is the payload offered by endpoint NICs (accepted into the
	// NIC queue; host NICs run no admission control).
	Emitted int64
	// Delivered is the raw payload received by endpoints, counting
	// retransmitted duplicates — what the wire actually handed over.
	Delivered int64
	// Dropped is the payload rejected at switch shared-buffer admission.
	Dropped int64
	// Lost is the payload discarded on downed wires (link failures):
	// serialized onto a dead wire, or in flight when the cut landed.
	Lost int64
	// Queued is the payload sitting in port queues at read time.
	Queued int64
	// OnWire is the payload transmitted but not yet delivered or lost —
	// on a wire, or parked in a cross-partition mailbox.
	OnWire int64
}

// InFlight returns the payload still inside the fabric.
func (a ByteAccounting) InFlight() int64 { return a.Queued + a.OnWire }

// Residual returns the conservation defect — zero on a correct fabric.
func (a ByteAccounting) Residual() int64 {
	return a.Emitted - a.Delivered - a.Dropped - a.Lost - a.InFlight()
}

// Accounting reads the current payload ledger off the built fabric: it
// sums the per-port counters of every host NIC and every switch port, a
// rotor fabric's circuit ports and whatever their VOQs hold included.
func (env *Env) Accounting() ByteAccounting {
	var a ByteAccounting
	net := env.Lab.Net
	for i, h := range net.Hosts {
		nic := h.NIC()
		a.Emitted += int64(nic.PayloadAccepted() + nic.PayloadDropped())
		a.Delivered += env.Lab.DeliveredPayload(i)
		a.Dropped += int64(nic.PayloadDropped())
		a.Lost += int64(nic.PayloadLost())
		a.Queued += int64(nic.PayloadQueued())
		a.OnWire += int64(nic.PayloadOnWire())
	}
	for _, s := range net.Switches {
		for _, pt := range s.Ports() {
			a.Dropped += int64(pt.PayloadDropped())
			a.Lost += int64(pt.PayloadLost())
			a.Queued += int64(pt.PayloadQueued())
			a.OnWire += int64(pt.PayloadOnWire())
		}
	}
	if env.Hybrid != nil {
		// Fluid bytes obey the same identity: everything the coupler's
		// integer ledger emitted is either delivered or still backlogged
		// (fluid traffic is never dropped or failure-lost — fluid excludes
		// failure timelines by validation).
		em, del, back := env.Hybrid.Totals()
		a.Emitted += em
		a.Delivered += del
		a.Queued += back
	}
	return a
}

// AccountingProbe surfaces the run's final byte ledger as Result
// scalars (bytes_emitted, bytes_delivered, bytes_dropped,
// bytes_lost_fail, bytes_inflight, bytes_residual) plus a per-host
// delivered-bytes series — the envelope the fuzzlab conservation,
// black-hole, capacity, and fairness invariants read, without reaching
// into fabric internals.
type AccountingProbe struct{}

func (AccountingProbe) Install(env *Env) error { return nil }

func (AccountingProbe) Finalize(env *Env, res *Result) error {
	a := env.Accounting()
	res.SetScalar("bytes_emitted", float64(a.Emitted))
	res.SetScalar("bytes_delivered", float64(a.Delivered))
	res.SetScalar("bytes_dropped", float64(a.Dropped))
	res.SetScalar("bytes_lost_fail", float64(a.Lost))
	res.SetScalar("bytes_inflight", float64(a.InFlight()))
	res.SetScalar("bytes_residual", float64(a.Residual()))
	if env.Hybrid != nil {
		// Hybrid runs additionally expose the fluid slice of the ledger,
		// so the invariant checker can assert fluid conservation on its
		// own (emitted − delivered − backlog ≡ 0) besides the combined
		// residual. Packet-only envelopes are byte-identical to before.
		em, del, back := env.Hybrid.Totals()
		res.SetScalar("fluid_bytes_emitted", float64(em))
		res.SetScalar("fluid_bytes_delivered", float64(del))
		res.SetScalar("fluid_bytes_backlog", float64(back))
	}
	// The per-host receive line rate bounds aggregate goodput: no host
	// can accept payload faster than its NIC drains it.
	res.SetScalar("rx_cap_gbps_per_host", env.Lab.Net.HostRate.InGbps())
	s := Series{Name: "delivered_bytes_by_host", XLabel: "host"}
	for i := range env.Lab.Net.Hosts {
		s.Points = append(s.Points, SeriesPoint{X: float64(i), V: float64(env.Lab.DeliveredPayload(i))})
	}
	res.AddSeries(s)
	return nil
}
