package cc

// Alpha exposes α.
func (d *DCQCN) Alpha() float64 { return d.alpha }

// Alpha exposes the marking-fraction EWMA.
func (d *DCTCP) Alpha() float64 { return d.alpha }

// Util exposes the smoothed utilization estimate.
func (h *HPCC) Util() float64 { return h.u }
