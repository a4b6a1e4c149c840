package sim

// Pending returns the number of queue entries waiting, including
// cancelled instances that have not been reaped yet.
func (e *Engine) Pending() int { return e.pending }

// Cancelled reports whether this instance was cancelled and has not yet
// been reaped. Stale handles (fired or reaped instances) report false.
func (ev Event) Cancelled() bool {
	return ev.n != nil && ev.n.gen == ev.gen && ev.n.cancelled
}
