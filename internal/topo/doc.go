// Package topo builds the networks the paper evaluates on and wires
// every layer below the experiments together: hosts (transport or
// HOMA), switches, links, the shared packet pool, and the routing
// control plane.
//
// # Topologies
//
//   - Star and Dumbbell: single- and shared-bottleneck microbenchmarks.
//   - FatTree: the 4:1-oversubscribed fabric of §4.1 (2 cores, 4 pods
//     with 2 aggregation and 2 ToR switches each, 256 servers, 100 Gbps
//     fabric and 25 Gbps server links, 5 µs core and 1 µs edge
//     propagation), scalable down via ServersPerTor for tests.
//   - LeafSpine: the two-tier Clos of the incast literature, with
//     optional per-spine rate overrides (SpineRates) for asymmetric
//     fabrics.
//   - ParkingLot: the multi-bottleneck chain behind §3.5's INT-vs-RTT
//     argument.
//   - RotorFabric: the reconfigurable DCN of §5 — ToRs on a packet core,
//     plus one circuit port a ToR holding per-destination VOQs. The
//     Rotor hung off the Network owns the slot timeline: each slot it
//     re-points the circuit ports at the matching's peers and moves each
//     ToR's routes to a rack between packet port and circuit port.
//
// # Invariants
//
//   - Builders only wire; routing tables are computed and installed by
//     internal/route from the finished graph. Options.Routing picks the
//     multipath strategy (per-flow ECMP when nil), and Network.Router
//     can fail/restore links mid-run with reconvergence. The one other
//     writer of tables is the Rotor, whose circuit ports the router never
//     sees — which is why a rotor fabric takes no link events.
//   - Host and switch port creation order is deterministic and
//     documented per builder (servers first, then fabric ports in peer
//     order), so tests and experiments may index ports structurally.
//   - Every network runs on a Plan (Options.Partition): each host and
//     switch on its partition's engine and packet free list. The shards
//     are the fabric's own — FatTreeConfig.Partitions is one a pod,
//     LeafSpineConfig.Partitions one a leaf — and with no plan a fabric
//     is one shard on the control engine (Network.Eng), which is a
//     serial run. Plan.Workers only says how many goroutines step them.
//   - BaseRTT is computed from the built topology so transports can use
//     the fabric's true τ.
//   - A config carries only what some caller varies: fabric shape, and
//     the rates that tests or experiments sweep (Star and Dumbbell host
//     rates, FatTreeConfig.FabricRate, SpineRates, ParkingLotConfig's
//     LinkRate, RotorConfig.PacketRate). Every other rate and delay is
//     one of the package's §4.1 constants — 25 Gbps server links,
//     100 Gbps fabric links, 1 µs edge and 5 µs core propagation — or
//     RotorCircuitRate, so the builders share one set of wires.
package topo
