package core

// NormPowerSmoothed exposes Γ_smooth.
func (p *PowerTCP) NormPowerSmoothed() float64 { return p.smooth }

// NormPowerSmoothed exposes Γ_smooth.
func (p *ThetaPowerTCP) NormPowerSmoothed() float64 { return p.smooth }
