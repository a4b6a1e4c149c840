package route

import "repro/internal/packet"

// referenceRouter is the rebuild the per-edge one replaced: one BFS per
// destination *host*, link state probed from a map of cut switch pairs,
// one Expand and one table entry per (switch, host). Kept as the oracle
// for the equivalence property test — every candidate list the Router
// installs must equal, in content and order, what this computes from the
// same graph and failure history, stale entries of partitioned switches
// included. It lives in a test file on purpose — production code has
// exactly one rebuild.
type referenceRouter struct {
	graph    [][]PortRef
	strategy Strategy
	hostIDs  map[int]packet.NodeID // host index → node ID
	down     map[[2]int]bool       // undirected switch pairs currently cut
	tables   []map[packet.NodeID][]int
}

func newReferenceRouter(graph [][]PortRef, strategy Strategy) *referenceRouter {
	r := &referenceRouter{
		graph:    graph,
		strategy: strategy,
		hostIDs:  map[int]packet.NodeID{},
		down:     map[[2]int]bool{},
		tables:   make([]map[packet.NodeID][]int, len(graph)),
	}
	for si, ports := range graph {
		r.tables[si] = map[packet.NodeID][]int{}
		for _, ref := range ports {
			if ref.ToHost {
				r.hostIDs[ref.Host] = ref.HostID
			}
		}
	}
	r.rebuild()
	return r
}

func refLinkKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

func (r *referenceRouter) setLink(a, b int, down bool) {
	if down {
		r.down[refLinkKey(a, b)] = true
	} else {
		delete(r.down, refLinkKey(a, b))
	}
}

func (r *referenceRouter) rebuild() {
	const inf = int(1e9)
	dist := make([]int, len(r.graph))
	for hi, dst := range r.hostIDs {
		for i := range dist {
			dist[i] = inf
		}
		var frontier, next []int
		for si := range r.graph {
			for _, ref := range r.graph[si] {
				if ref.ToHost && ref.Host == hi {
					dist[si] = 1
					frontier = append(frontier, si)
				}
			}
		}
		for len(frontier) > 0 {
			next = next[:0]
			for _, si := range frontier {
				for _, ref := range r.graph[si] {
					if ref.ToHost || r.down[refLinkKey(si, ref.Peer)] {
						continue
					}
					if dist[ref.Peer] == inf {
						dist[ref.Peer] = dist[si] + 1
						next = append(next, ref.Peer)
					}
				}
			}
			frontier, next = next, frontier
		}

		for si := range r.graph {
			if dist[si] == inf {
				continue
			}
			var cand []Candidate
			direct := false
			for pi, ref := range r.graph[si] {
				if ref.ToHost && ref.Host == hi {
					cand = []Candidate{{Port: pi, Rate: ref.Link.Rate}}
					direct = true
					break
				}
				if !ref.ToHost && !r.down[refLinkKey(si, ref.Peer)] && dist[ref.Peer] == dist[si]-1 {
					cand = append(cand, Candidate{Port: pi, Rate: ref.Link.Rate})
				}
			}
			if len(cand) == 0 {
				continue // partitioned: keep the stale table entry
			}
			ports := r.strategy.Expand(cand, nil)
			if direct || len(ports) > 0 {
				r.tables[si][dst] = ports
			}
		}
	}
}
