package topo

import (
	"repro/internal/link"
	"repro/internal/psim"
	"repro/internal/sim"
)

// TorOf returns the ToR switch index serving host hi in a FatTree built
// with the given config.
func TorOf(cfg FatTreeConfig, hi int) int {
	cfg.fillDefaults()
	return hi / cfg.ServersPerTor
}

// PacketPort exposes ToR t's packet-core-facing port.
func (r *Rotor) PacketPort(t int) *link.Port { return r.net.Switches[t].Ports()[r.viaPacket[0]] }

// SparePorts returns the ports the network's block has room for and
// never handed out.
func SparePorts(n *Network) int { return n.ports.Spare() }

// Edges returns the sync edges of n's psim fabric, their lookaheads by
// ordered shard pair.
func Edges(n *Network) map[[2]int]sim.Duration {
	edges := map[[2]int]sim.Duration{}
	for i := range n.Engs {
		for j := range n.Engs {
			if look, ok := n.PSim.Lookahead(i, j); ok {
				edges[[2]int{i, j}] = look
			}
		}
	}
	return edges
}

// Mailboxes returns how many distinct mailboxes n's switch ports post
// their transmissions into.
func Mailboxes(n *Network) int {
	boxes := map[*psim.Mailbox]bool{}
	for _, s := range n.Switches {
		for _, pt := range s.Ports() {
			if pt.Out != nil {
				boxes[pt.Out] = true
			}
		}
	}
	return len(boxes)
}

// SpareLists returns the room for switch port lists and peer lists the
// network reserved and never carved (addSwitch).
func SpareLists(n *Network) (ports, peers int) { return len(n.swPorts), len(n.peers) }
