package packet

import "fmt"

// String names a kind in test output.
func (k Kind) String() string {
	switch k {
	case Data:
		return "DATA"
	case Ack:
		return "ACK"
	case CNP:
		return "CNP"
	case Grant:
		return "GRANT"
	case Request:
		return "REQ"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// String renders a compact debugging description.
func (p *Packet) String() string {
	switch p.Kind {
	case Data:
		return fmt.Sprintf("%v flow=%d [%d,%d) %d→%d", p.Kind, p.Flow, p.Seq(), p.End(), p.Src, p.Dst)
	case Ack:
		return fmt.Sprintf("%v flow=%d ack=%d %d→%d", p.Kind, p.Flow, p.AckSeq(), p.Src, p.Dst)
	default:
		return fmt.Sprintf("%v flow=%d %d→%d", p.Kind, p.Flow, p.Src, p.Dst)
	}
}
