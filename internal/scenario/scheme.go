package scenario

import (
	"repro/internal/cc"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/swtch"
)

// Scheme names ResolveScheme accepts (matching the paper's legends).
const (
	PowerTCP      = "powertcp"
	ThetaPowerTCP = "theta-powertcp"
	HPCC          = "hpcc"
	Timely        = "timely"
	DCQCN         = "dcqcn"
	DCTCP         = "dctcp" // taxonomy reference (Fig. 1), ablations
	Reno          = "reno"  // loss-based reference, ablations
	Homa          = "homa"  // overcommitment 1; "homa-oc<N>" selects N
)

// RDCN scheme names (Fig. 8 legend). reTCP variants carry their
// prebuffering in microseconds; "retcp-<N>" selects N µs.
const (
	ReTCP600  = "retcp-600"
	ReTCP1800 = "retcp-1800"
)

// Schemes lists every sender-based scheme, in the paper's legend order.
var Schemes = []string{PowerTCP, ThetaPowerTCP, HPCC, Timely, DCQCN, Homa}

// Kind classifies a scheme by the transport/plumbing it requires.
type Kind int

const (
	// KindCC is a plain sender-based algorithm with a fixed builder.
	KindCC Kind = iota
	// KindPowerTCP and KindTheta rebuild their cc.Builder from the
	// scheme's composed core.Config (γ).
	KindPowerTCP
	KindTheta
	// KindHoma uses the receiver-driven HOMA transport.
	KindHoma
	// KindReTCP is the RDCN prebuffering baseline (§5).
	KindReTCP
)

// Scheme bundles a congestion-control choice with the switch features it
// needs: INT stamping for the telemetry-driven laws, RED/ECN for DCQCN,
// and strict-priority queues for HOMA. Overcommit and PrebufferFor come
// from the scheme name (homa-oc<N>, retcp-<µs>); the ablation knobs
// Gamma and DTAlpha are composed by SchemeOptions at resolution time.
type Scheme struct {
	Name string
	Kind Kind
	// Alg builds a traffic component's per-flow algorithms, one array of
	// the concrete law; nil for HOMA (its own transport) and reTCP (built
	// per flow against the rotor's calendar).
	Alg cc.Builder
	// INT enables telemetry stamping on the switches.
	INT bool
	// ECN configures RED marking (DCQCN).
	ECN swtch.ECNConfig
	// PrioQueues replaces FIFO egress queues with 8-level strict
	// priority (HOMA).
	PrioQueues bool
	// Overcommit is HOMA's concurrent-grant degree (≥1).
	Overcommit int
	// Gamma overrides PowerTCP's EWMA weight (ablations); 0 = default.
	Gamma float64
	// DTAlpha overrides the switches' Dynamic-Thresholds factor
	// (0 keeps the default α=1) for buffer-management ablations.
	DTAlpha float64
	// PrebufferFor is reTCP's circuit-day prebuffering lead time.
	PrebufferFor sim.Duration
}

// IsHoma reports whether the scheme uses the receiver-driven transport.
func (s Scheme) IsHoma() bool { return s.Kind == KindHoma }

// DCQCNECN is the marking profile used for DCQCN runs, following the
// HPCC paper's configuration the authors adopt (§4.1).
var DCQCNECN = swtch.ECNConfig{KMin: 100 << 10, KMax: 400 << 10, PMax: 0.2}

// DCTCPECN is DCTCP's step marking at threshold K (the paper notes the
// flows oscillate around K > b·τ/7, §2.2).
var DCTCPECN = swtch.ECNConfig{KMin: 65 << 10, KMax: 65<<10 + 1, PMax: 1}

// queueFactory returns the switch ports' queue constructor for the
// scheme.
func (s Scheme) queueFactory() func(n int) []queue.Queue {
	if s.PrioQueues {
		return queue.NewPrios
	}
	return nil
}
