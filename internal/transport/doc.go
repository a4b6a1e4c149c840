// Package transport implements the sender-based reliable transport the
// congestion-control algorithms ride on: window-limited, rate-paced
// senders (rate = cwnd/τ, §3.3), per-packet cumulative ACKs that echo
// the INT stack and ECN marks, NewReno-style fast retransmit, and a
// retransmission timeout. Receivers additionally generate DCQCN CNPs.
//
// # Role in the stack
//
// A transport Host is one server NIC: it terminates flows in both
// directions and owns the egress port toward its ToR. Experiment labs
// (internal/exp) attach a cc.Algorithm per flow; the algorithms never
// see the transport, only OnAck/OnLoss-style signals.
//
// A flow is its slot in the network's packet.FlowTable, found by FlowID:
// the Flow at its source, the receiver's bookkeeping at its destination.
// Both transports report a finished flow as a Completion.
//
// # Invariants
//
//   - Packets handed to Receive are consumed: the host copies what it
//     needs and recycles them into the engine's pool. Hooks (OnData,
//     OnFlowDone) must not retain packet pointers.
//   - A packet's Hops may be nil: hop storage is attached by the first
//     switch that stamps the packet, through packet.Pool.Stamp. The ACK
//     takes the data packet's stack over whole (Packet.TakeHops), so by
//     the time OnData runs the data packet's Hops is nil.
//   - Pacing and RTO run on pre-bound sim.Timers; the steady-state send
//     path allocates nothing beyond pool misses.
//   - A flow with Size = Unbounded never finishes on its own —
//     background traffic for windows measured by the experiment.
//   - Receiver-side byte counts (ReceivedBytes, ReceivedTotal) count raw
//     payload arrivals: a retransmitted range that had already arrived
//     counts again. Nothing on the wire marks a retransmission, so
//     goodput read from these counters includes duplicates.
package transport
