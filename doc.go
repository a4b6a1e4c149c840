// Package powertcp is a from-scratch Go reproduction of "PowerTCP:
// Pushing the Performance Limits of Datacenter Networks" (Addanki,
// Michel, Schmid — USENIX NSDI 2022).
//
// PowerTCP is a congestion-control law that reacts to network *power*:
// the product of voltage ν = q + b·τ (buffered bytes plus
// bandwidth-delay product — the absolute state voltage-based schemes
// like HPCC and Swift react to) and current λ = q̇ + µ (the state's
// trend, which current-based schemes like TIMELY react to). Reacting to
// the product captures both dimensions at once: congestion onset is
// visible at near-zero queues, and the reaction strength still scales
// with how much standing queue there is.
//
// # The layers, bottom up
//
//   - internal/sim: deterministic single-threaded discrete-event engine
//     (picosecond clock, pooled events, re-armable timers). Everything
//     above schedules here; determinism and the zero-allocation hot
//     path are its invariants.
//   - internal/packet, internal/queue, internal/buffer, internal/link:
//     the data plane — pooled packets, queue disciplines, shared-memory
//     Dynamic-Thresholds buffers, and egress ports that serialize onto
//     point-to-point wires (and can be cut for failure experiments).
//   - internal/swtch: an output-queued switch with table-driven
//     forwarding, ECMP flow hashing, RED/ECN marking and INT stamping at
//     dequeue.
//   - internal/route: the routing control plane — pluggable multipath
//     strategies (single-path, ECMP, weighted ECMP) computed over the
//     switch graph, plus scheduled link failures with control-plane
//     reconvergence.
//   - internal/topo: topology builders (fat-tree, leaf-spine, star,
//     dumbbell, parking lot) that wire hosts, switches, pool and router
//     into a runnable Network.
//   - internal/transport and internal/homa: the sender-based reliable
//     transport the cc algorithms drive, and the receiver-driven HOMA
//     transport.
//   - internal/core and internal/cc: PowerTCP/θ-PowerTCP and the
//     baselines (HPCC, TIMELY, DCQCN, plus DCTCP and Reno as
//     references).
//   - internal/scenario: the composition layer — a run is a Scenario
//     value (Topology × Traffic × Events × Probes) — with the closed
//     scheme table and the result envelope.
//   - internal/exp: the paper's figures as seven typed presets that
//     build Scenarios, and the parallel suite runner behind every
//     figure.
//
// This package re-exports the public surface of those layers; see
// README.md for the quickstart, EXPERIMENTS.md for the
// experiment↔figure index, and PERF.md for the performance contract.
//
// Quick start (two hosts, one bottleneck):
//
//	net := powertcp.Dumbbell(powertcp.DumbbellConfig{Left: 1, Right: 1,
//	    Opts: powertcp.NetOptions{Hosts: powertcp.Hosts(powertcp.HostConfig{BaseRTT: 16 * powertcp.Microsecond}), INT: true}})
//	src, dst := net.TransportHost(0), net.TransportHost(1)
//	src.StartFlow(net.NextFlowID(), dst.ID(), 1<<20, powertcp.New(powertcp.Config{}), 0)
//	net.Eng.Run()
package powertcp
