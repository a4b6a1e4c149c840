package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/units"
	"repro/internal/workload"
)

// simInput is everything one simulator workload hands the program: a
// fabric, an explicit flow list, a link-event timeline, the probes and a
// horizon. All of it is made here from the seed; the simulator's own
// trace generators are never asked to draw anything during a pass.
type simInput struct {
	name   string
	seed   int64
	topo   scenario.FatTreeTopology
	flows  []scenario.FlowSpec
	events scenario.Timeline
	until  sim.Duration
	hasFCT bool
	digest string
}

// build makes the single-use Scenario value of one pass.
func (in *simInput) build(parts int) (scenario.Scenario, error) {
	scheme, err := scenario.ResolveScheme(scenario.PowerTCP)
	if err != nil {
		return scenario.Scenario{}, err
	}
	t := in.topo
	t.Partitions = parts
	probes := []scenario.Probe{scenario.AccountingProbe{}}
	if in.hasFCT {
		probes = append(probes, scenario.FCTProbe{})
	}
	return scenario.Scenario{
		Name:     in.name,
		Scheme:   scheme,
		Seed:     in.seed,
		Topology: t,
		Traffic:  []scenario.Traffic{scenario.Flows{List: in.flows}},
		Events:   in.events,
		Probes:   probes,
		Until:    in.until,
	}, nil
}

// fabricConfig is the topo-level shape of the input's fat-tree, with
// the paper's defaults filled in.
func (in *simInput) fabricConfig() topo.FatTreeConfig {
	return topo.FatTreeConfig{
		Pods: in.topo.Pods, TorsPerPod: in.topo.TorsPerPod,
		AggsPerPod: in.topo.AggsPerPod, Cores: in.topo.Cores,
		ServersPerTor: in.topo.ServersPerTor,
	}.WithDefaults()
}

func (in *simInput) hosts() int {
	cfg := in.fabricConfig()
	return cfg.Racks() * cfg.ServersPerTor
}

// seal hashes the generated input, so two commits can be shown to have
// been given the same bytes.
func (in *simInput) seal() {
	h := sha256.New()
	w := func(v int64) { binary.Write(h, binary.BigEndian, v) }
	cfg := in.fabricConfig()
	for _, d := range []int{cfg.Pods, cfg.TorsPerPod, cfg.AggsPerPod, cfg.Cores, cfg.ServersPerTor} {
		w(int64(d))
	}
	w(in.seed)
	w(int64(in.until))
	w(int64(len(in.flows)))
	fab := scenario.Fabric{Hosts: in.hosts(), Racks: cfg.Racks(), HostsPerRack: cfg.ServersPerTor}
	for _, f := range in.flows {
		src, _ := f.Src.Resolve(fab)
		dst, _ := f.Dst.Resolve(fab)
		w(int64(f.Start))
		w(int64(src))
		w(int64(dst))
		w(f.Size)
	}
	w(int64(in.events.Reconverge))
	fmt.Fprintf(h, "%+v", in.events.Events)
	in.digest = hex.EncodeToString(h.Sum(nil))
}

func flowSpecs(flows []workload.Flow) []scenario.FlowSpec {
	out := make([]scenario.FlowSpec, len(flows))
	for i, f := range flows {
		out[i] = scenario.FlowSpec{
			Start: f.Start, Src: scenario.Host(f.Src), Dst: scenario.Host(f.Dst), Size: f.Size,
		}
	}
	return out
}

// permutationFlows is one endless flow per host along a seeded
// fixed-point-free permutation.
func permutationFlows(hosts int, seed int64) []scenario.FlowSpec {
	out := make([]scenario.FlowSpec, 0, hosts)
	for src, dst := range workload.Permutation(hosts, seed) {
		out = append(out, scenario.FlowSpec{
			Src: scenario.Host(src), Dst: scenario.Host(dst), Size: scenario.Unbounded,
		})
	}
	return out
}

// smallFabric is the 16-host fat-tree every simulator workload shrinks
// to at smoke scale.
var smallFabric = scenario.FatTreeTopology{ServersPerTor: 2}

// genWebsearch64 is the paper's Fig. 6 shape: a 64-host fat-tree under
// web-search traffic at 0.6 load for 9 ms, run to 10 ms.
//
// The flow sizes and arrival instants are one fixed Poisson draw; the
// seed decides only who talks to whom. A seed that also drew the sizes
// would change the work by ±8% in events and ±25% in bytes allocated
// (measured over ten seeds): 753 heavy-tailed flows do not average out.
// Dealing endpoints from seeded host permutations in descending size
// order keeps the elephants on distinct hosts, so every seed offers the
// same bytes at the same instants and the event count moves by about 1%.
func genWebsearch64(seed int64, smoke bool) *simInput {
	in := &simInput{
		name: "websearch64", seed: seed,
		topo:   scenario.FatTreeTopology{ServersPerTor: 8},
		until:  10 * sim.Millisecond,
		hasFCT: true,
	}
	genHorizon := 9 * sim.Millisecond
	if smoke {
		in.topo = smallFabric
		in.until = sim.Millisecond
		genHorizon = 800 * sim.Microsecond
	}
	cfg := in.fabricConfig()
	gen := &workload.Poisson{
		Load:             0.6,
		UplinkCapPerRack: units.BitRate(cfg.AggsPerPod) * cfg.FabricRate,
		Racks:            cfg.Racks(),
		HostsPerRack:     cfg.ServersPerTor,
		Dist:             workload.WebSearch(),
		Seed:             1,
	}
	flows := gen.Generate(genHorizon)
	placeEndpoints(flows, cfg.Racks(), cfg.ServersPerTor, seed)
	in.flows = flowSpecs(flows)
	in.seal()
	return in
}

// placeEndpoints deals sources and destinations to the flows, largest
// first, from seeded permutations of the hosts; a destination in the
// source's rack is skipped, so every flow crosses the rack uplinks the
// load is defined on.
func placeEndpoints(flows []workload.Flow, racks, perRack int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	hosts := racks * perRack
	order := make([]int, len(flows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return flows[order[a]].Size > flows[order[b]].Size })
	var srcs, dsts []int
	for r, i := range order {
		if r%hosts == 0 {
			srcs, dsts = rng.Perm(hosts), rng.Perm(hosts)
		}
		src, dst := srcs[r%hosts], dsts[r%hosts]
		for k := 1; dst/perRack == src/perRack; k++ {
			dst = dsts[(r+k)%hosts]
		}
		flows[i].Src, flows[i].Dst = src, dst
	}
}

// genFattree10k is exp.ScaleFatTree10k's fabric — 16 pods × 16 ToRs ×
// 40 servers = 10,240 hosts under permutation traffic — cut at 20 µs:
// long enough for every flow's first window to cross the core, short
// enough that three repetitions of a pass whose Prepare alone takes 4 s
// fit the benchmark's time cap.
func genFattree10k(seed int64, smoke bool) *simInput {
	in := &simInput{
		name: "fattree10k", seed: seed,
		topo: scenario.FatTreeTopology{
			Pods: 16, TorsPerPod: 16, AggsPerPod: 8, Cores: 16, ServersPerTor: 40,
		},
		until: 20 * sim.Microsecond,
	}
	if smoke {
		in.topo = smallFabric
	}
	in.flows = permutationFlows(in.hosts(), seed)
	in.seal()
	return in
}

// genReconverge4k is a 4,096-host fat-tree under permutation traffic in
// which a ToR–agg link fails at 15 µs and comes back at 35 µs, so the
// routing tables are rebuilt twice during the 60 µs drive instead of
// once in Prepare.
func genReconverge4k(seed int64, smoke bool) *simInput {
	in := &simInput{
		name: "reconverge4k", seed: seed,
		topo: scenario.FatTreeTopology{
			Pods: 16, TorsPerPod: 8, AggsPerPod: 4, Cores: 8, ServersPerTor: 32,
		},
		until: 60 * sim.Microsecond,
	}
	if smoke {
		in.topo = smallFabric
	}
	in.flows = permutationFlows(in.hosts(), seed)
	us := func(v int64) sim.Duration { return sim.Duration(v) * sim.Microsecond }
	in.events = scenario.Timeline{
		Events: []scenario.Event{
			scenario.LinkFail{At: us(15), A: scenario.Tor(0), B: scenario.Agg(0)},
			scenario.LinkRestore{At: us(35), A: scenario.Tor(0), B: scenario.Agg(0)},
		},
		Reconverge: us(5),
	}
	in.seal()
	return in
}

// collectBetweenPasses forces a collection between two simulator passes
// without losing the lab's scratch (engine wheel, packet free list).
//
// The scratch travels from Release to the next Prepare through a
// sync.Pool, and Pool.Get looks in the current P's private slot and in
// every P's shared list, never in another P's private slot: the scratch
// is found again only while the goroutine stays on its P. A collection
// parks the goroutine and resumes it on either P — with two Ps a coin
// flip, and websearch64's bytes allocated per pass flip between 3 MB and
// 18 MB with it. So the scratch is checked out across the collection: a
// two-host lab built right after Release takes it from the pool, holds
// it while the collector runs, and puts it back for the Prepare that
// follows within microseconds.
//
// Collecting here, and not only after the drive, also makes every pass
// start from the same near-empty heap. Without it the collector's pacing
// carries over from pass to pass, and on fattree10k — where Prepare
// allocates 1.03 GB against 1.07 GB of headroom — the concurrent mark
// lands in Prepare on one repetition and in the drive on the next (drives
// of 3.0, 4.3, 3.8 s in every run).
func collectBetweenPasses() error {
	scheme, err := scenario.ResolveScheme(scenario.PowerTCP)
	if err != nil {
		return err
	}
	park, err := scenario.Prepare(scenario.Scenario{
		Name: "park", Scheme: scheme,
		Topology: scenario.StarTopology{Hosts: 2},
		Until:    sim.Nanosecond,
	})
	if err != nil {
		return err
	}
	runtime.GC()
	park.Release()
	return nil
}

// runRep is a pass after the cold one: collect, then run.
func runRep(in *simInput, o passOpts) (simPass, error) {
	if err := collectBetweenPasses(); err != nil {
		return simPass{}, err
	}
	return runPass(in.build, in.hasFCT, o)
}

// passTimes are the host-time phases of one pass, in seconds.
type passTimes struct {
	prepare, drive, finish, encode, release float64
}

func (t passTimes) total() float64 { return t.prepare + t.drive + t.finish + t.encode + t.release }

func (t *passTimes) add(o passTimes) {
	t.prepare += o.prepare
	t.drive += o.drive
	t.finish += o.finish
	t.encode += o.encode
	t.release += o.release
}

// simPass is what one pass yields.
type simPass struct {
	times    passTimes
	ops      uint64
	digest   string
	result   *scenario.Result
	liveMB   float64
	problems []string
}

// driveSlices is how many equal sim-time DriveTo calls a traced pass
// cuts the drive into. Slicing is byte-identical to one call (the
// contract of Prepared.DriveTo), so a traced pass computes the same
// Result.
const driveSlices = 10

// passOpts are the extras of a pass beyond running it.
type passOpts struct {
	parts int
	// tr, when set, records a span around each call into the scenario
	// layer, under parent, and cuts the drive into driveSlices slices.
	tr     *tracer
	parent int
	// live measures the live heap after the drive.
	live bool
	// clock, when set, takes its calibration sample after the drive,
	// while the pass's own clock is stopped and the lab's scratch is
	// checked out. Between passes, 0.3 s of calibration would be ample
	// time for the goroutine to change P and lose the scratch (see
	// collectBetweenPasses); measured, that happened once in forty runs.
	clock *hostClock
	// inspect sees the driven fabric after the Result is encoded and
	// before the lab is released, off the clock.
	inspect func(*scenario.Prepared)
}

// runPass executes one complete pass: Prepare → DriveTo(horizon) →
// Finish → Result.EncodeJSON → Release, timing each call. After the
// drive, with the clock stopped and the fabric still referenced, it reads
// the live heap and takes the calibration sample.
func runPass(build func(parts int) (scenario.Scenario, error), hasFCT bool, o passOpts) (simPass, error) {
	var out simPass
	if o.parts == 0 {
		o.parts = 1
	}
	sc, err := build(o.parts)
	if err != nil {
		return out, err
	}
	tr := o.tr
	pass := tr.begin("pass", o.parent)
	defer tr.end(pass)

	t0 := time.Now()
	sp := tr.begin("prepare", pass)
	p, err := scenario.Prepare(sc)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	t1 := time.Now()
	if tr != nil {
		h := int64(p.Horizon())
		for i := int64(1); i <= driveSlices; i++ {
			sp := tr.begin(fmt.Sprintf("drive[%d]", i-1), pass)
			p.DriveTo(sim.Time(h * i / driveSlices))
			tr.end(sp)
		}
	} else {
		p.DriveTo(p.Horizon())
	}
	t2 := time.Now()
	out.ops = p.Steps()
	if o.live {
		out.liveMB = liveHeapMB(false)
	}
	if o.clock != nil {
		o.clock.tick()
	}
	t3 := time.Now()
	sp = tr.begin("finish", pass)
	res, err := p.Finish()
	tr.end(sp)
	if err != nil {
		return out, err
	}
	t4 := time.Now()
	sp = tr.begin("encode", pass)
	var buf bytes.Buffer
	err = res.EncodeJSON(&buf)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	t5 := time.Now()
	if o.inspect != nil {
		o.inspect(p)
	}
	t6 := time.Now()
	sp = tr.begin("release", pass)
	p.Release()
	tr.end(sp)
	t7 := time.Now()

	out.times = passTimes{
		prepare: t1.Sub(t0).Seconds(), drive: t2.Sub(t1).Seconds(),
		finish: t4.Sub(t3).Seconds(), encode: t5.Sub(t4).Seconds(),
		release: t7.Sub(t6).Seconds(),
	}
	sum := sha256.Sum256(buf.Bytes())
	out.digest = hex.EncodeToString(sum[:])
	out.result = res

	// Output checks: the byte ledger balances, flows completed where
	// they are counted, and the Result agrees with the engine about how
	// many events ran.
	if r := res.Scalar("bytes_residual"); r != 0 {
		out.problems = append(out.problems, fmt.Sprintf("bytes_residual = %v", r))
	}
	if hasFCT && res.Scalar("completed") <= 0 {
		out.problems = append(out.problems, "no flow completed")
	}
	if es := uint64(res.Scalar("engine_steps")); es != out.ops {
		out.problems = append(out.problems, fmt.Sprintf("engine_steps %d != ops %d", es, out.ops))
	}
	return out, nil
}
