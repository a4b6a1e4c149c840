package fuzzlab

import (
	"bytes"

	"repro/internal/scenario"
)

// maxShrinkTries caps the total candidate evaluations of one Shrink
// call — each evaluation runs full simulations, so a runaway candidate
// space must degrade to "less minimal" rather than "never returns".
const maxShrinkTries = 4096

// Shrink greedily minimizes a failing Spec: it walks a fixed candidate
// order — drop a traffic component, drop an event, clear the override,
// shrink a topology dimension, halve the horizon, simplify a component
// value — accepts the first candidate that still fails, and restarts
// until no candidate fails. failing must report whether a Spec still
// exhibits the violation (a Spec that no longer builds or runs counts
// as not failing). The walk is deterministic: the same input spec and
// predicate always shrink to the same output.
func Shrink(sp scenario.Spec, failing func(*scenario.Spec) bool) scenario.Spec {
	cur := sp
	tries := 0
	for {
		improved := false
		for _, cand := range candidates(&cur) {
			if tries++; tries > maxShrinkTries {
				return cur
			}
			if failing(cand) {
				cur = *cand
				improved = true
				break
			}
		}
		if !improved {
			return cur
		}
	}
}

func clone(sp *scenario.Spec) *scenario.Spec {
	c := *sp
	c.Traffic = append([]scenario.TrafficSpec(nil), sp.Traffic...)
	for i := range c.Traffic {
		c.Traffic[i].Flows = append([]scenario.FlowEntry(nil), c.Traffic[i].Flows...)
		c.Traffic[i].Sizes = append([]int64(nil), c.Traffic[i].Sizes...)
	}
	c.Events = append([]scenario.EventSpec(nil), sp.Events...)
	return &c
}

// candidates enumerates every one-step reduction of the spec, in the
// fixed order the shrinker walks. Transforms that would leave the spec
// unchanged are skipped, so an accepted candidate always makes strict
// progress and the loop terminates.
func candidates(sp *scenario.Spec) []*scenario.Spec {
	base := Canonical(sp)
	var out []*scenario.Spec
	add := func(c *scenario.Spec) {
		if !bytes.Equal(Canonical(c), base) {
			out = append(out, c)
		}
	}

	for i := range sp.Traffic {
		c := clone(sp)
		c.Traffic = append(c.Traffic[:i:i], c.Traffic[i+1:]...)
		add(c)
	}
	for i := range sp.Events {
		c := clone(sp)
		c.Events = append(c.Events[:i:i], c.Events[i+1:]...)
		add(c)
	}
	if sp.ReconvergeUS != 0 {
		c := clone(sp)
		c.ReconvergeUS = 0
		add(c)
	}
	for i := range sp.Traffic {
		if sp.Traffic[i].Override != "" {
			c := clone(sp)
			c.Traffic[i].Override = ""
			add(c)
		}
	}

	switch sp.Topo.Kind {
	case "star":
		c := clone(sp)
		c.Topo.Hosts = floorHalve(c.Topo.Hosts, 2)
		add(c)
		c = clone(sp)
		c.Topo.Hosts--
		if c.Topo.Hosts >= 2 {
			add(c)
		}
	case "leafspine":
		for _, f := range []func(*scenario.TopoSpec){
			func(t *scenario.TopoSpec) { t.Leaves = 2 },
			func(t *scenario.TopoSpec) { t.Spines = 2 },
			func(t *scenario.TopoSpec) { t.ServersPerLeaf = floorHalve(t.ServersPerLeaf, 1) },
		} {
			c := clone(sp)
			f(&c.Topo)
			add(c)
		}
	case "fattree":
		c := clone(sp)
		c.Topo.ServersPerTor = 1
		add(c)
	}
	if sp.Topo.Routing != "" {
		c := clone(sp)
		c.Topo.Routing = ""
		add(c)
	}

	c := clone(sp)
	c.HorizonUS = floorHalve64(c.HorizonUS, 50)
	add(c)

	for i := range sp.Traffic {
		for _, cand := range simplifyComponent(sp, i) {
			add(cand)
		}
	}
	return out
}

// simplifyComponent enumerates the value-level reductions of one
// traffic component.
func simplifyComponent(sp *scenario.Spec, i int) []*scenario.Spec {
	var out []*scenario.Spec
	emit := func(f func(*scenario.TrafficSpec)) {
		c := clone(sp)
		f(&c.Traffic[i])
		out = append(out, c)
	}
	switch sp.Traffic[i].Kind {
	case "flows":
		for j := range sp.Traffic[i].Flows {
			j := j
			emit(func(t *scenario.TrafficSpec) { t.Flows = append(t.Flows[:j:j], t.Flows[j+1:]...) })
		}
		for j := range sp.Traffic[i].Flows {
			j := j
			emit(func(t *scenario.TrafficSpec) { t.Flows[j].StartUS = 0 })
			emit(func(t *scenario.TrafficSpec) { t.Flows[j].Size = floorHalve64(t.Flows[j].Size, 1000) })
		}
	case "pulse":
		emit(func(t *scenario.TrafficSpec) { t.FanIn = floorHalve(t.FanIn, 1) })
		emit(func(t *scenario.TrafficSpec) { t.FlowSize = floorHalve64(t.FlowSize, 1000) })
		emit(func(t *scenario.TrafficSpec) { t.AtUS = 0 })
	case "staggered":
		emit(func(t *scenario.TrafficSpec) { t.Count = floorHalve(t.Count, 1) })
		if len(sp.Traffic[i].Sizes) > 0 {
			emit(func(t *scenario.TrafficSpec) { t.Sizes = t.Sizes[:1] })
			emit(func(t *scenario.TrafficSpec) { t.Sizes[0] = floorHalve64(t.Sizes[0], 1000) })
		}
	case "poisson":
		emit(func(t *scenario.TrafficSpec) {
			if t.Load > 0.2 {
				t.Load = 0.2
			}
		})
	case "requests":
		emit(func(t *scenario.TrafficSpec) { t.FanIn = floorHalve(t.FanIn, 1) })
		emit(func(t *scenario.TrafficSpec) { t.RequestSize = floorHalve64(t.RequestSize, 1000) })
	case "rackpairs":
		emit(func(t *scenario.TrafficSpec) { t.Count = floorHalve(t.Count, 1) })
		emit(func(t *scenario.TrafficSpec) {
			// Replace endless pairs with a finite transfer, then halve it.
			if t.Size == 0 {
				t.Size = 20_000
			} else {
				t.Size = floorHalve64(t.Size, 1000)
			}
		})
	}
	return out
}

func floorHalve(v, floor int) int {
	if h := v / 2; h > floor {
		return h
	}
	return floor
}

func floorHalve64(v, floor int64) int64 {
	if v < 0 {
		return floor // Unbounded shrinks to a small finite transfer
	}
	if h := v / 2; h > floor {
		return h
	}
	return floor
}
