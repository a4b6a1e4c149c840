package route

// DownLinks returns the number of currently-failed links: switch pairs
// whose ports between them are cut.
func (r *Router) DownLinks() int {
	n := 0
	for si, refs := range r.graph {
		cut := map[int]bool{}
		for _, ref := range refs {
			if !ref.ToHost && ref.down && si < ref.Peer {
				cut[ref.Peer] = true
			}
		}
		n += len(cut)
	}
	return n
}
