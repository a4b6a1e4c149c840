package transport

import (
	"repro/internal/cc"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Unbounded marks a flow with no end (long-running background traffic).
const Unbounded int64 = -1

// Flow is one sender-side transport connection.
type Flow struct {
	ID   packet.FlowID
	Src  *Host
	Dst  packet.NodeID
	Size int64 // bytes to transfer, or Unbounded
	CC   cc.Algorithm

	StartAt  sim.Time
	FinishAt sim.Time
	Done     bool

	sndNxt     int64
	sndUna     int64
	maxSent    int64 // highest sequence ever transmitted
	dupAcks    int
	inRecovery bool
	recover    int64
	nextSendAt sim.Time

	// Timers bound once in StartFlow: pacing credit arrival and
	// retransmission timeout. Both are armed and re-armed without
	// allocating (see sim.Timer).
	pacer sim.Timer
	rto   sim.Timer

	Retransmits uint64
	started     bool
	ect         bool
}

// StartFlow registers a new flow on h toward dst and schedules its first
// transmission at 'at'. alg becomes the flow's congestion controller.
// The flow is the send half of its slot in the flow table, so it costs
// no allocation of its own: the timers are fields of the flow, and they
// and the start event run package-level functions with the flow as
// argument.
func (h *Host) StartFlow(id packet.FlowID, dst packet.NodeID, size int64, alg cc.Algorithm, at sim.Time) *Flow {
	f := &h.flows.Slot(id).snd
	*f = Flow{
		ID:      id,
		Src:     h,
		Dst:     dst,
		Size:    size,
		CC:      alg,
		StartAt: at,
	}
	f.pacer.Bind(h.eng, trySend, f)
	f.rto.Bind(h.eng, onRTO, f)
	h.eng.AtCall(at, start, f)
	return f
}

func start(arg any)   { arg.(*Flow).start() }
func trySend(arg any) { arg.(*Flow).trySend() }
func onRTO(arg any)   { arg.(*Flow).onRTO() }

func (f *Flow) start() {
	f.started = true
	f.CC.Init(cc.Limits{
		BaseRTT:  f.Src.cfg.BaseRTT,
		HostRate: f.Src.nic.Rate,
		MSS:      packet.MSS,
		Engine:   f.Src.eng,
	})
	f.ect = cc.WantsECT(f.CC)
	f.nextSendAt = f.Src.eng.Now()
	f.trySend()
}

// remaining returns bytes not yet handed to the network (MaxInt for
// unbounded flows).
func (f *Flow) remaining() int64 {
	if f.Size == Unbounded {
		return 1 << 62
	}
	return f.Size - f.sndNxt
}

// Inflight returns the bytes sent but not yet cumulatively acknowledged.
func (f *Flow) Inflight() int64 { return f.sndNxt - f.sndUna }

// FCT returns the flow completion time; valid once Done.
func (f *Flow) FCT() sim.Duration { return f.FinishAt.Sub(f.StartAt) }

func (f *Flow) trySend() {
	if f.Done {
		return
	}
	eng := f.Src.eng
	now := eng.Now()
	for f.remaining() > 0 && float64(f.Inflight()) < f.CC.Cwnd() && now >= f.nextSendAt {
		n := int64(packet.MSS)
		if r := f.remaining(); r < n {
			n = r
		}
		f.emit(f.sndNxt, n, false)
		f.sndNxt += n
	}
	// Blocked on pacing: wake up when the next credit arrives. Blocked on
	// the window: the next ACK wakes us.
	if f.remaining() > 0 && float64(f.Inflight()) < f.CC.Cwnd() && now < f.nextSendAt {
		if !f.pacer.Armed() {
			f.pacer.Arm(f.nextSendAt)
		}
	}
	f.armRTO()
}

// emit transmits one data packet and charges the pacer. Any byte below
// the high-water mark is a retransmission, whether it comes from fast
// retransmit or from a go-back-N rewind after an RTO.
func (f *Flow) emit(seq, n int64, rtx bool) {
	if seq < f.maxSent {
		rtx = true
	}
	if seq+n > f.maxSent {
		f.maxSent = seq + n
	}
	p := f.Src.pool.Get()
	p.Kind = packet.Data
	p.Flow = f.ID
	p.Src = f.Src.id
	p.Dst = f.Dst
	p.SetSeq(seq)
	p.PayloadLen = int32(n)
	p.ECT = f.ect
	p.SetSentAt(f.Src.eng.Now())
	f.Src.nic.Send(p)
	if rtx {
		f.Retransmits++
	}
	if rate := f.CC.Rate(); rate > 0 {
		gap := rate.TxTime(p.WireLen())
		now := f.Src.eng.Now()
		if f.nextSendAt < now {
			f.nextSendAt = now
		}
		f.nextSendAt = f.nextSendAt.Add(gap)
	}
}

func (f *Flow) onAck(p *packet.Packet) {
	if f.Done {
		return
	}
	now := f.Src.eng.Now()
	newly := int64(0)
	switch {
	case p.AckSeq() > f.sndUna:
		newly = p.AckSeq() - f.sndUna
		f.sndUna = p.AckSeq()
		f.dupAcks = 0
		f.resetRTO()
		if f.inRecovery {
			if f.sndUna >= f.recover {
				f.inRecovery = false
			} else {
				// NewReno partial ACK: the next hole is lost too.
				f.retransmitHead()
			}
		}
	case p.AckSeq() == f.sndUna && f.Inflight() > 0:
		f.dupAcks++
		thresh := f.Src.cfg.DupAckThreshold
		if thresh > 0 && f.dupAcks == thresh && !f.inRecovery {
			f.inRecovery = true
			f.recover = f.sndNxt
			f.CC.OnLoss(now)
			f.retransmitHead()
		}
	}

	f.CC.OnAck(cc.Ack{
		Now:        now,
		AckSeq:     p.AckSeq(),
		NewlyAcked: newly,
		SndNxt:     f.sndNxt,
		RTT:        now.Sub(p.EchoSent()),
		ECNEcho:    p.EchoECN,
		Hops:       p.Hops(),
	})

	if f.Size != Unbounded && f.sndUna >= f.Size {
		f.finish(now)
		return
	}
	f.trySend()
}

func (f *Flow) retransmitHead() {
	n := int64(packet.MSS)
	if f.Size != Unbounded && f.Size-f.sndUna < n {
		n = f.Size - f.sndUna
	}
	if n <= 0 {
		return
	}
	f.emit(f.sndUna, n, true)
}

func (f *Flow) finish(now sim.Time) {
	f.Done = true
	f.FinishAt = now
	f.pacer.Stop()
	f.rto.Stop()
	if s, ok := f.CC.(interface{ Stop() }); ok {
		s.Stop() // timer-driven algorithms must release their timers
	}
	if f.Src.OnFlowDone != nil {
		f.Src.OnFlowDone(Completion{ID: f.ID, Src: f.Src.id, Dst: f.Dst, Size: f.Size, Start: f.StartAt, FCT: f.FCT()})
	}
}

func (f *Flow) armRTO() {
	if f.Inflight() == 0 || f.Done {
		return
	}
	if !f.rto.Armed() {
		f.rto.ArmAfter(f.Src.rto)
	}
}

// resetRTO pushes the timeout a full RTO out from now. With the lazy
// Timer this is a pair of field writes per ACK, not a heap delete and
// re-insert.
func (f *Flow) resetRTO() {
	if f.Inflight() == 0 || f.Done {
		f.rto.Stop()
		return
	}
	f.rto.ArmAfter(f.Src.rto)
}

func (f *Flow) onRTO() {
	if f.Done || f.Inflight() == 0 {
		return
	}
	// Go-back-N: rewind to the cumulative ACK point and let the window
	// algorithm react to the loss.
	f.sndNxt = f.sndUna
	f.dupAcks = 0
	f.inRecovery = false
	f.CC.OnLoss(f.Src.eng.Now())
	f.nextSendAt = f.Src.eng.Now()
	f.trySend()
}
