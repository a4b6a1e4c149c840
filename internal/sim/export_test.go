package sim

// Pending returns the number of queue entries waiting, including
// cancelled instances that have not been reaped yet.
func (e *Engine) Pending() int { return e.pending }
