package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/sim"
)

// SchemeOption composes an ablation variant onto a resolved Scheme: γ
// for the PowerTCP family and the Dynamic-Thresholds α for any scheme.
// HOMA's overcommitment and reTCP's prebuffering are spelled in the
// scheme name (homa-oc<N>, retcp-<µs>). Options validate their target
// and return errors instead of panicking.
type SchemeOption func(*Scheme) error

// schemeTable holds every fixed scheme, sorted by name. The two
// parameterized families (homa-oc<N>, retcp-<µs>) are parsed by
// baseScheme instead.
var schemeTable = []struct {
	name   string
	scheme Scheme
}{
	{DCQCN, Scheme{Kind: KindCC, ECN: DCQCNECN, Alg: cc.DCQCNBuilder()}},
	{DCTCP, Scheme{Kind: KindCC, ECN: DCTCPECN, Alg: cc.DCTCPBuilder()}},
	{Homa, Scheme{Kind: KindHoma, PrioQueues: true, Overcommit: 1}},
	{HPCC, Scheme{Kind: KindCC, INT: true, Alg: cc.HPCCBuilder()}},
	{PowerTCP, Scheme{Kind: KindPowerTCP, INT: true}},
	{Reno, Scheme{Kind: KindCC, Alg: cc.RenoBuilder()}},
	{ThetaPowerTCP, Scheme{Kind: KindTheta}},
	{Timely, Scheme{Kind: KindCC, Alg: cc.TimelyBuilder()}},
}

// SchemeNames returns the fixed scheme names, sorted. Parameterized
// families (homa-oc<N>, retcp-<µs>) are not enumerable and therefore
// not listed.
func SchemeNames() []string {
	names := make([]string, len(schemeTable))
	for i, e := range schemeTable {
		names[i] = e.name
	}
	return names
}

// ResolveScheme resolves a scheme name and composes the given options
// onto it. Unknown names, malformed family parameters (homa-oc0) and
// options applied to the wrong scheme all return errors.
func ResolveScheme(name string, opts ...SchemeOption) (Scheme, error) {
	s, err := baseScheme(name)
	if err != nil {
		return Scheme{}, err
	}
	s.Name = name
	for _, opt := range opts {
		if err := opt(&s); err != nil {
			return Scheme{}, err
		}
	}
	s.materialize()
	return s, nil
}

// baseScheme returns the unnamed Scheme a name selects: a table entry,
// or a family member with its parameter composed from the name.
func baseScheme(name string) (Scheme, error) {
	for _, e := range schemeTable {
		if e.name == name {
			return e.scheme, nil
		}
	}
	switch {
	case strings.HasPrefix(name, "homa-oc"):
		n, err := strconv.Atoi(strings.TrimPrefix(name, "homa-oc"))
		if err != nil {
			return Scheme{}, fmt.Errorf("scenario: malformed HOMA overcommit scheme %q", name)
		}
		if n < 1 {
			return Scheme{}, fmt.Errorf("scenario: scheme %q: overcommit %d must be ≥1", name, n)
		}
		return Scheme{Kind: KindHoma, PrioQueues: true, Overcommit: n}, nil
	case strings.HasPrefix(name, "retcp-"):
		us, err := strconv.Atoi(strings.TrimPrefix(name, "retcp-"))
		if err != nil {
			return Scheme{}, fmt.Errorf("scenario: malformed reTCP scheme %q", name)
		}
		if us <= 0 {
			return Scheme{}, fmt.Errorf("scenario: scheme %q: prebuffer %d µs must be positive", name, us)
		}
		return Scheme{Kind: KindReTCP, PrebufferFor: sim.Duration(us) * sim.Microsecond}, nil
	}
	return Scheme{}, fmt.Errorf("scenario: unknown scheme %q (known: %s, plus the homa-oc<N> and retcp-<µs> families)",
		name, strings.Join(SchemeNames(), ", "))
}

// materialize rebuilds the algorithm builder for schemes whose
// configuration is composed from options (the PowerTCP family).
func (s *Scheme) materialize() {
	cfg := core.Config{Gamma: s.Gamma}
	switch s.Kind {
	case KindPowerTCP:
		s.Alg = cfg.Builder()
	case KindTheta:
		s.Alg = cfg.ThetaBuilder()
	}
}

// Scheme options.

// Gamma overrides the PowerTCP-family EWMA weight γ ∈ (0,1] (§3.3).
func Gamma(g float64) SchemeOption {
	return func(s *Scheme) error {
		if s.Kind != KindPowerTCP && s.Kind != KindTheta {
			return fmt.Errorf("scenario: γ override does not apply to scheme %q", s.Name)
		}
		if g <= 0 || g > 1 {
			return fmt.Errorf("scenario: γ = %v out of (0,1]", g)
		}
		s.Gamma = g
		return nil
	}
}

// Alpha overrides the switches' Dynamic-Thresholds factor α (buffer
// management ablations; any scheme).
func Alpha(a float64) SchemeOption {
	return func(s *Scheme) error {
		if a <= 0 {
			return fmt.Errorf("scenario: DT α = %v must be positive", a)
		}
		s.DTAlpha = a
		return nil
	}
}
