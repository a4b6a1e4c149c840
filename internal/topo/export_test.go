package topo

import "repro/internal/link"

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
