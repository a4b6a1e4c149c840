package psim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
)

// rec is one fired event as a test sees it: where it sat in the canonical
// order, which scripted event it was, and the control state it ran under.
type rec struct {
	key  sim.Key
	id   uint64
	salt uint64
}

// snapshot is what a control event saw: its own key and how many events
// every shard had fired by then.
type snapshot struct {
	key    sim.Key
	counts []int
}

type cut struct {
	from, to int
	look     sim.Duration
	mb       *Mailbox // nil on the serial world
}

// inbox is a shard's Arriver: a message's effect is one delivery event.
type inbox func(any)

func (in inbox) Arrive(eng *sim.Engine, k sim.Key, arg any) { eng.InjectKey(k, in, arg) }

type note struct {
	id    uint64
	depth int
}

// world is one randomly scripted model: shards that fire events, schedule
// local follow-ups and send messages over cut links, and a control chain
// that samples and perturbs them. Built serially every shard and the
// control chain share one engine and a send is a plain AtCall; built on a
// Fabric each shard has its own engine and a send is ChildKey + Post.
// Every decision an event takes derives from its id and the control salt,
// never from a shared generator, so it is the same decision wherever and
// whenever the event runs.
type world struct {
	ctrl    *sim.Engine
	engs    []*sim.Engine
	out     [][]*cut
	deliver []inbox // per destination shard
	logs    [][]rec
	salt    []uint64
	shots   []snapshot
	global  []rec // serial world only: the one engine's firing order
	serial  bool
}

// Every instant in a script is a multiple of grain, so events of
// different shards, arriving messages and control events keep landing on
// the same instant and the order among them is the key's to decide.
const grain = 100 * sim.Nanosecond

const (
	maxDepth    = 6
	originShard = uint64(1) << 40
	originCtrl  = uint64(2) << 40
)

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// script is the random part of a model, drawn once and built twice.
type script struct {
	shards  int
	cuts    []cut
	roots   [][]sim.Time // per shard
	period  sim.Duration // control sampling period
	horizon sim.Time
}

func drawScript(rng *rand.Rand) script {
	s := script{shards: 2 + rng.Intn(4)}
	for i := 0; i < s.shards; i++ {
		for j := 0; j < s.shards; j++ {
			// A ring keeps every shard reachable; the rest is chance, and
			// now and then a pair gets a second link with its own lookahead.
			if i == j || (j != (i+1)%s.shards && rng.Intn(3) != 0) {
				continue
			}
			for n := 1 + rng.Intn(5)/4; n > 0; n-- {
				look := sim.Duration(5+rng.Intn(45)) * grain
				s.cuts = append(s.cuts, cut{from: i, to: j, look: look})
			}
		}
	}
	s.roots = make([][]sim.Time, s.shards)
	for i := range s.roots {
		for n := 3 + rng.Intn(6); n > 0; n-- {
			s.roots[i] = append(s.roots[i], sim.Time(rng.Intn(200))*sim.Time(grain))
		}
	}
	s.period = sim.Duration(7+rng.Intn(90)) * grain
	s.horizon = sim.Time(30+rng.Intn(40)) * sim.Time(sim.Microsecond)
	return s
}

// build wires the script onto one engine (fab nil) or onto a fabric.
func (s script) build(workers int) (*world, *Fabric) {
	w := &world{
		ctrl: sim.New(), engs: make([]*sim.Engine, s.shards), out: make([][]*cut, s.shards),
		deliver: make([]inbox, s.shards), logs: make([][]rec, s.shards), salt: make([]uint64, s.shards),
		serial: workers == 0,
	}
	for i := range w.engs {
		w.engs[i] = w.ctrl
		if !w.serial {
			w.engs[i] = sim.New()
		}
		w.deliver[i] = func(arg any) { m := arg.(*note); w.fire(i, m.id, m.depth) }
	}
	var fab *Fabric
	if !w.serial {
		fab = New(w.ctrl, w.engs, workers)
	}
	for i := range s.cuts {
		c := s.cuts[i]
		if fab != nil {
			c.mb = fab.AddEdge(c.from, c.to, c.look)
		}
		w.out[c.from] = append(w.out[c.from], &c)
	}
	for i, roots := range s.roots {
		for n, at := range roots {
			id := splitmix(uint64(i)<<32 | uint64(n))
			w.engs[i].SetOrigin(originShard | uint64(i)<<20 | uint64(n))
			w.engs[i].At(at, func() { w.fire(i, id, 0) })
		}
	}
	// The control chain: every period, sample every shard and change the
	// salt its later events run under.
	var tick func()
	tick = func() {
		shot := snapshot{key: w.ctrl.ExecKey(), counts: make([]int, s.shards)}
		for i := range w.logs {
			shot.counts[i] = len(w.logs[i])
			w.salt[i] = splitmix(w.salt[i] + uint64(len(w.logs[i])))
		}
		w.shots = append(w.shots, shot)
		if w.serial {
			w.global = append(w.global, rec{key: shot.key})
		}
		w.ctrl.After(s.period, tick)
	}
	w.ctrl.SetOrigin(originCtrl)
	w.ctrl.At(sim.Time(s.period), tick)
	return w, fab
}

// fire is event id running on shard i.
func (w *world) fire(i int, id uint64, depth int) {
	eng := w.engs[i]
	r := rec{key: eng.ExecKey(), id: id, salt: w.salt[i]}
	w.logs[i] = append(w.logs[i], r)
	if w.serial {
		w.global = append(w.global, r)
	}
	if depth == maxDepth {
		return
	}
	h := splitmix(id ^ w.salt[i])
	for c := h % 3; c > 0; c-- {
		h = splitmix(h)
		child := splitmix(id + c)
		// One delay in four is zero: a child in the tick being fired.
		d := sim.Duration(h>>8%4*(h>>16%30)) * grain
		eng.At(eng.Now().Add(d), func() { w.fire(i, child, depth+1) })
	}
	if outs := w.out[i]; len(outs) > 0 && h&4 != 0 {
		c := outs[h>>8%uint64(len(outs))]
		// One message in three arrives at exactly the lookahead.
		at := eng.Now().Add(c.look + sim.Duration(h>>24%3*(h>>32%20))*grain)
		m := &note{id: splitmix(id + 7), depth: depth + 1}
		if c.mb != nil {
			c.mb.Post(eng.ChildKey(at), w.deliver[c.to], m)
		} else {
			eng.AtCall(at, w.deliver[c.to], m)
		}
	}
}

// The coordinator's contract: a fabric — any cut graph, any lookaheads,
// any script, driven in any number of slices by one worker or two — fires
// what the one engine fires, each shard in the one engine's sub-order,
// with every control event seeing the shards exactly as far along.
func TestFabricMatchesOneEngine(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := drawScript(rng)
		nSlices := 1 + rng.Intn(3)

		want, _ := s.build(0)
		want.ctrl.RunUntil(s.horizon)
		if len(want.global) < 50 || len(want.shots) < 3 {
			t.Fatalf("seed %d: the script fired %d events and %d control events; it tests nothing",
				seed, len(want.global), len(want.shots))
		}

		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("seed %d, %d shards, %d cuts, W=%d", seed, s.shards, len(s.cuts), workers)
			got, fab := s.build(workers)
			for i := 1; i <= nSlices; i++ {
				fab.Run(s.horizon * sim.Time(i) / sim.Time(nSlices))
			}
			if fab.Steps() != want.ctrl.Steps() {
				t.Fatalf("%s: fabric ran %d steps, the one engine %d", name, fab.Steps(), want.ctrl.Steps())
			}
			for i := range want.logs {
				if !slices.Equal(got.logs[i], want.logs[i]) {
					t.Fatalf("%s: shard %d fired %d events in its own order, the one engine %d",
						name, i, len(got.logs[i]), len(want.logs[i]))
				}
			}
			if len(got.shots) != len(want.shots) {
				t.Fatalf("%s: %d control events, want %d", name, len(got.shots), len(want.shots))
			}
			for n, shot := range want.shots {
				if got.shots[n].key != shot.key || !slices.Equal(got.shots[n].counts, shot.counts) {
					t.Fatalf("%s: control event %d saw shards at %v, the one engine's saw %v",
						name, n, got.shots[n].counts, shot.counts)
				}
			}
			// The whole firing order, rebuilt from the keys alone: a merge
			// of the shards' logs and the control log by the key at each
			// head (internal/scenario merges flow records the same way). A
			// sort would not do: a zero-delay child can key before a sibling
			// of its instant that has already fired, and fires after it.
			lanes := append(slices.Clone(got.logs), nil)
			for _, shot := range got.shots {
				lanes[s.shards] = append(lanes[s.shards], rec{key: shot.key})
			}
			var merged []rec
			for {
				best := -1
				for l, lane := range lanes {
					if len(lane) > 0 && (best < 0 || lane[0].key.Less(lanes[best][0].key)) {
						best = l
					}
				}
				if best < 0 {
					break
				}
				merged = append(merged, lanes[best][0])
				lanes[best] = lanes[best][1:]
			}
			if !slices.Equal(merged, want.global) {
				t.Fatalf("%s: merged by key, the firing order differs from the one engine's", name)
			}
			for i, e := range got.engs {
				if e.Now() != s.horizon {
					t.Fatalf("%s: shard %d left at %v, want the horizon %v", name, i, e.Now(), s.horizon)
				}
			}
		}
	}
}

// An ordered shard pair has one edge and one mailbox, however many links
// declare it, at the least lookahead declared; the reverse pair is an
// edge of its own, and a pair no link joins has none.
func TestAddEdgeOnePerPair(t *testing.T) {
	fab := New(sim.New(), []*sim.Engine{sim.New(), sim.New(), sim.New()}, 1)
	mb := fab.AddEdge(0, 1, 5*sim.Microsecond)
	for _, look := range []sim.Duration{3 * sim.Microsecond, 4 * sim.Microsecond} {
		if got := fab.AddEdge(0, 1, look); got != mb {
			t.Fatalf("a second link from 0 to 1 made a second mailbox")
		}
	}
	if look, ok := fab.Lookahead(0, 1); !ok || look != 3*sim.Microsecond {
		t.Fatalf("edge 0→1 has lookahead %v (present %v), want the least declared, 3µs", look, ok)
	}
	if back := fab.AddEdge(1, 0, 5*sim.Microsecond); back == mb {
		t.Fatalf("edge 1→0 shares edge 0→1's mailbox")
	}
	if look, ok := fab.Lookahead(1, 0); !ok || look != 5*sim.Microsecond {
		t.Fatalf("edge 1→0 has lookahead %v (present %v), want 5µs", look, ok)
	}
	if _, ok := fab.Lookahead(0, 2); ok {
		t.Fatalf("an edge from 0 to 2, which no link joins")
	}
}

// A control event between two events of one shard, closer together than
// any lookahead: the shard must stop exactly at the control event's key,
// and what the control event changes must reach the second event.
func TestControlEventBetweenShardEvents(t *testing.T) {
	us := func(n int64) sim.Time { return sim.Time(n) * sim.Time(sim.Microsecond) }
	for _, workers := range []int{1, 2} {
		ctrl, a, b := sim.New(), sim.New(), sim.New()
		fab := New(ctrl, []*sim.Engine{a, b}, workers)
		fab.AddEdge(0, 1, 50*sim.Microsecond)
		fab.AddEdge(1, 0, 50*sim.Microsecond)
		var order []string
		flag := "unset"
		a.SetOrigin(1)
		a.At(us(1), func() { order = append(order, "a1 "+flag) })
		a.At(us(3), func() { order = append(order, "a3 "+flag) })
		ctrl.SetOrigin(2)
		ctrl.At(us(2), func() {
			order = append(order, fmt.Sprintf("ctrl a@%v b@%v", a.Now(), b.Now()))
			flag = "set"
		})
		fab.Run(us(4))
		want := []string{"a1 unset", fmt.Sprintf("ctrl a@%v b@%v", us(2), us(2)), "a3 set"}
		if !slices.Equal(order, want) {
			t.Fatalf("W=%d: fired %q, want %q", workers, order, want)
		}
		if fab.Steps() != 3 {
			t.Fatalf("W=%d: %d steps, want 3", workers, fab.Steps())
		}
	}
}

// A shard that trips an in-loop limit freezes the whole fabric — Run
// returns, a second Run moves nothing — and it freezes it at the same
// event, with the same steps behind it, on one worker as on two.
func TestTrippedShardFreezesFabric(t *testing.T) {
	type outcome struct {
		trip  sim.Trip
		steps uint64
		nows  [3]sim.Time
	}
	run := func(workers int) outcome {
		ctrl := sim.New()
		engs := []*sim.Engine{sim.New(), sim.New(), sim.New()}
		fab := New(ctrl, engs, workers)
		for i := range engs {
			fab.AddEdge(i, (i+1)%3, 2*sim.Microsecond)
			engs[i].SetLimits(0, 500)
		}
		// Shards 0 and 2 tick along; shard 1 reaches an instant it never
		// leaves.
		for _, i := range []int{0, 2} {
			e := engs[i]
			var tick func()
			tick = func() { e.After(300*sim.Nanosecond, tick) }
			e.SetOrigin(uint64(10 + i))
			e.At(0, tick)
		}
		var spin func()
		spin = func() { engs[1].After(0, spin) }
		engs[1].SetOrigin(11)
		engs[1].At(sim.Time(5*sim.Microsecond), spin)

		fab.Run(sim.Time(20 * sim.Microsecond))
		tr := fab.Tripped()
		if tr == nil {
			t.Fatalf("W=%d: the fabric ran to the horizon past a livelock", workers)
		}
		out := outcome{trip: *tr, steps: fab.Steps()}
		for i, e := range engs {
			out.nows[i] = e.Now()
		}
		fab.Run(sim.Time(40 * sim.Microsecond))
		if fab.Steps() != out.steps || engs[0].Now() != out.nows[0] {
			t.Fatalf("W=%d: a tripped fabric advanced on the next Run", workers)
		}
		return out
	}
	one, two := run(1), run(2)
	if one.trip.Reason != sim.TripLivelock || one.trip.At != sim.Time(5*sim.Microsecond) {
		t.Fatalf("tripped with %+v, want a livelock at 5 µs", one.trip)
	}
	if one != two {
		t.Fatalf("the freeze depends on the worker count:\n W=1 %+v\n W=2 %+v", one, two)
	}
}

// Workers are what Run starts, not shards: one worker is the calling
// goroutine and nothing else, W workers are W−1 goroutines that are gone
// when Run returns.
func TestRunStartsWorkersNotShards(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		ctrl := sim.New()
		engs := make([]*sim.Engine, 6)
		for i := range engs {
			engs[i] = sim.New()
		}
		fab := New(ctrl, engs, workers)
		for i := range engs {
			fab.AddEdge(i, (i+1)%len(engs), sim.Microsecond)
		}
		during := 0
		ctrl.SetOrigin(1)
		ctrl.At(sim.Time(3*sim.Microsecond), func() { during = fab.Helping() })
		fab.Run(sim.Time(5 * sim.Microsecond))
		if during != workers-1 {
			t.Errorf("W=%d over 6 shards: %d helpers started, want %d", workers, during, workers-1)
		}
		if after := fab.Helping(); after != 0 {
			t.Errorf("W=%d: %d helpers outlive Run", workers, after)
		}
	}
}
