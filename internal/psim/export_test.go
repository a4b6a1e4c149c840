package psim

// Helping reports how many helper goroutines the fabric has started and
// not yet reaped.
func (f *Fabric) Helping() int { return int(f.helping.Load()) }
