package hybrid

// Emitted returns the fluid payload bytes that have arrived at this
// link so far (the fluid analogue of payload accepted).
func (lf *LinkFluid) Emitted() int64 { return lf.emitted }

// Delivered returns the fluid payload bytes the link has served.
func (lf *LinkFluid) Delivered() int64 { return lf.delivered }

// Backlog returns the fluid bytes currently queued at the link.
func (lf *LinkFluid) Backlog() int64 { return lf.backlog }
