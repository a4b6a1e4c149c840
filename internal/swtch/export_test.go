package swtch

import "repro/internal/packet"

// TableLen returns the number of entries in the forwarding table.
func (s *Switch) TableLen() int { return len(s.table) }

// NodeID returns the switch's own node ID.
func (s *Switch) NodeID() packet.NodeID { return s.id }
