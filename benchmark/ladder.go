package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/queue"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/swtch"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/units"
)

// The ladder is a set of micro-drivers, one per layer, each calling only
// the layer's public API with nothing above it. They do not depend on
// the workload; every traced run repeats them, so each per-layer cost
// comes with the host speed of the run it is read beside.

// ladderBatches is how many timed batches stand behind each rung.
const ladderBatches = 7

// rung times fn, which performs ops operations, ladderBatches times
// after one untimed warm-up, and returns the median nanoseconds per
// operation.
func rung(ops int, fn func()) float64 {
	fn()
	per := make([]float64, ladderBatches)
	for i := range per {
		start := time.Now()
		fn()
		per[i] = float64(time.Since(start).Nanoseconds()) / float64(ops)
	}
	return median(per)
}

// ladderOps is a rung's operation count: full, or a twentieth (a
// multiple of burst) for the smoke test.
func ladderOps(full int, smoke bool) int {
	if !smoke {
		return full
	}
	return (full/20 + burst - 1) / burst * burst
}

// sink is a link.Receiver that recycles whatever reaches it.
type sink struct{ pool *packet.Pool }

func (s sink) Receive(p *packet.Packet) { s.pool.Put(p) }

// burst is how many packets a rung puts in flight before it lets the
// engine run: enough to keep the port busy, few enough to stay in cache
// as a steady-state fabric does.
const burst = 64

// ladderEngine measures the raw scheduler: schedule-and-fire of
// near-future events (wheel level 0, as serialization and propagation
// are), of far-future events (level 2 and the overflow heap, as RTOs
// are), and the re-arm of an armed timer for a later deadline (what
// every ACK does to the RTO).
func ladderEngine(o *outcome, smoke bool) {
	n := ladderOps(200_000, smoke)
	eng := sim.New()
	nop := func() {}
	o.set("sim.schedule_fire_ns", rung(n, func() {
		for i := 0; i < n; i += burst {
			for j := 0; j < burst; j++ {
				eng.After(sim.Duration(10+j*25)*sim.Nanosecond, nop)
			}
			eng.Run()
		}
	}), "ns")
	o.set("sim.far_schedule_fire_ns", rung(n, func() {
		for i := 0; i < n; i += burst {
			for j := 0; j < burst; j++ {
				// 1–190 ms ahead: past level 1's 537 µs span, and for
				// the upper third past the wheel's 137 ms horizon.
				eng.After(sim.Duration(1+3*j)*sim.Millisecond, nop)
			}
			eng.Run()
		}
	}), "ns")
	tm := eng.NewTimer(nop)
	o.set("sim.timer_rearm_ns", rung(n, func() {
		for i := 0; i < n; i += burst {
			base := eng.Now()
			for j := 1; j <= burst; j++ {
				tm.Arm(base.Add(sim.Duration(j) * sim.Microsecond))
			}
			eng.Run()
		}
	}), "ns")
}

// ladderLink measures one packet through one bare port — Send, the
// serializer's txDone, delivery into a sink: two engine events — and a
// FIFO push and pop on its own.
func ladderLink(o *outcome, smoke bool) {
	n := ladderOps(200_000, smoke)
	eng := sim.New()
	pool := packet.NewPool()
	port := link.NewPort(eng, 100*units.Gbps, sim.Microsecond, sink{pool})
	port.Pool = pool
	o.set("link.hop_ns", rung(n, func() {
		for i := 0; i < n; i += burst {
			for j := 0; j < burst; j++ {
				p := pool.Get()
				p.Kind, p.PayloadLen = packet.Data, 1000
				port.Send(p)
			}
			eng.Run()
		}
	}), "ns")

	q := queue.NewFIFO()
	pkts := make([]*packet.Packet, burst)
	for i := range pkts {
		pkts[i] = &packet.Packet{PayloadLen: 1000}
	}
	o.set("queue.push_pop_ns", rung(n, func() {
		for i := 0; i < n; i += burst {
			for _, p := range pkts {
				q.Push(p)
			}
			for range pkts {
				q.Pop()
			}
		}
	}), "ns")

	o.set("packet.pool_get_put_ns", rung(n, func() {
		for i := 0; i < n; i++ {
			pool.Put(pool.Get())
		}
	}), "ns")
}

// ladderSwitch measures Switch.Receive through the egress port into a
// sink — table lookup, ECMP hash, shared-buffer admission, INT stamp at
// dequeue and the port's two events — against a table of dsts
// destinations, each with two equal-cost ports, for uniformly random
// destinations. Each table entry is its own small slice carved from one
// arena, as route.Router installs them. The difference between the
// 10,240- and the 64-destination figure is what table size costs.
func ladderSwitch(dsts int, smoke bool) float64 {
	n := ladderOps(200_000, smoke)
	eng := sim.New()
	pool := packet.NewPool()
	sw := swtch.New(eng, packet.NodeID(1<<20), swtch.Config{INT: true, BufferBytes: 64 << 20, Pool: pool})
	for i := 0; i < 2; i++ {
		sw.AddPort(100*units.Gbps, sim.Microsecond, sink{pool}, nil)
	}
	sw.PresizeRoutes(dsts)
	arena := make([]int, 0, 2*dsts)
	for d := 0; d < dsts; d++ {
		arena = append(arena, 0, 1)
		sw.SetRoute(packet.NodeID(d), arena[2*d:2*d+2:2*d+2])
	}
	rng := rand.New(rand.NewSource(1))
	dst := make([]packet.NodeID, n)
	for i := range dst {
		dst[i] = packet.NodeID(rng.Intn(dsts))
	}
	return rung(n, func() {
		for i := 0; i < n; i += burst {
			for j := 0; j < burst; j++ {
				p := pool.Get()
				p.Kind, p.PayloadLen = packet.Data, 1000
				p.Src, p.Dst, p.Flow = packet.NodeID(j), dst[i+j], packet.FlowID(i+j)
				sw.Receive(p)
			}
			eng.Run()
		}
	})
}

// ladderTransport measures one data→ACK round between two hosts wired
// back to back under a fixed window: emit, two port hops, receiver
// bookkeeping, ACK build, ACK processing, window refill.
func ladderTransport(o *outcome, smoke bool) error {
	n := ladderOps(50_000, smoke)
	var flowID packet.FlowID
	var failed error
	round := rung(n, func() {
		eng := sim.New()
		pool := packet.NewPool()
		cfg := transport.Config{BaseRTT: 10 * sim.Microsecond}
		a := transport.NewHost(eng, 1, cfg)
		b := transport.NewHost(eng, 2, cfg)
		for _, w := range []struct{ from, to *transport.Host }{{a, b}, {b, a}} {
			pt := link.NewPort(eng, 100*units.Gbps, sim.Microsecond, w.to)
			pt.Pool = pool
			w.from.SetUplink(pt)
			w.from.SetPool(pool)
		}
		flowID++
		f := a.StartFlow(flowID, 2, int64(n)*packet.MSS, &cc.FixedWindow{Window: 32 * packet.MSS}, 0)
		eng.Run()
		if !f.Done {
			failed = errors.New("transport rung: flow did not finish")
		}
	})
	o.set("transport.data_ack_round_ns", round, "ns")
	return failed
}

// ladderLaws measures one OnAck of each control law, fed the feedback of
// a steady 3-hop path: every call moves each hop's timestamp and byte
// counter forward by one packet time, as consecutive ACKs do.
func ladderLaws(o *outcome, smoke bool) {
	n := ladderOps(200_000, smoke)
	laws := []struct {
		metric string
		alg    cc.Algorithm
	}{
		{"core.onack_ns.powertcp", core.New(core.Config{})},
		{"core.onack_ns.theta-powertcp", core.NewTheta(core.Config{})},
		{"cc.onack_ns.hpcc", cc.NewHPCC()},
		{"cc.onack_ns.timely", cc.NewTimely()},
		{"cc.onack_ns.dcqcn", cc.NewDCQCN()},
	}
	for _, l := range laws {
		lim := cc.Limits{BaseRTT: 30 * sim.Microsecond, HostRate: 25 * units.Gbps, MSS: packet.MSS, Engine: sim.New()}
		l.alg.Init(lim)
		hops := make([]telemetry.HopRecord, 3)
		for i := range hops {
			hops[i].Rate = 100 * units.Gbps
		}
		var now sim.Time
		var seq int64
		o.set(l.metric, rung(n, func() {
			for i := 0; i < n; i++ {
				now = now.Add(340 * sim.Nanosecond)
				seq += packet.MSS
				for h := range hops {
					hops[h].TS = now
					hops[h].TxBytes += 1048
					hops[h].QLen = int64(i%8) * 1048
				}
				l.alg.OnAck(cc.Ack{
					Now: now, AckSeq: seq, NewlyAcked: packet.MSS, SndNxt: seq + 64*packet.MSS,
					RTT: 30*sim.Microsecond + sim.Duration(i%8)*sim.Microsecond, Hops: hops,
				})
			}
		}), "ns")
	}
}

// websearchPreset is the canonical Spec the serving rungs submit.
func websearchPreset() scenario.Spec {
	for _, p := range scenario.SpecPresets() {
		if p.Name == "websearch" {
			return p
		}
	}
	panic("benchmark: scenario.SpecPresets has no websearch preset")
}

// ladderSpec measures what the serving path does to a request body
// before it can look anything up: canonical encoding, strict decoding
// and the content key.
func ladderSpec(o *outcome, smoke bool) error {
	n := ladderOps(2_000, smoke)
	sp := websearchPreset()
	var failed error
	o.set("scenario.spec_roundtrip_us", rung(n, func() {
		for i := 0; i < n; i++ {
			b, err := scenario.MarshalCanonical(&sp)
			if err == nil {
				var dec *scenario.Spec
				if dec, err = scenario.DecodeSpec(b); err == nil {
					_, err = scenario.SpecKey(dec, dec.Seed, 1)
				}
			}
			if err != nil {
				failed = err
			}
		}
	})/1e3, "us")
	return failed
}

// ladderHandler measures a cache hit with no socket: the handler called
// directly into a recorder. What serve.hit_p50_us adds to it is net/http
// and the loopback.
func ladderHandler(o *outcome, smoke bool) error {
	n := ladderOps(5_000, smoke)
	srv, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		return err
	}
	h := srv.Handler()
	sp := websearchPreset()
	body, err := scenario.MarshalCanonical(&sp)
	if err != nil {
		return err
	}
	if rec := post(h, "/v1/run", body); rec.Code != http.StatusOK {
		return errors.New("handler rung: " + rec.Body.String())
	}
	o.set("serve.handler_hit_us", rung(n, func() {
		for i := 0; i < n; i++ {
			post(h, "/v1/run", body)
		}
	})/1e3, "us")
	return srv.Drain()
}

// ladderGuard measures what run supervision costs on the websearch64
// shape cut to 1 ms: the same scenario through scenario.Run and through
// a zero-budget guard.Supervisor, alternating, five times each after a
// warming round.
func ladderGuard(o *outcome, smoke bool) error {
	in := genWebsearch64(1, smoke)
	in.until = sim.Millisecond
	reps := 5
	if smoke {
		in.until, reps = 200*sim.Microsecond, 2
	}
	var plain, supervised []float64
	var sup guard.Supervisor
	for i := 0; i < reps+1; i++ {
		for _, run := range []struct {
			into *[]float64
			fn   func(scenario.Scenario) (*scenario.Result, error)
		}{{&plain, scenario.Run}, {&supervised, sup.RunScenario}} {
			sc, err := in.build(1)
			if err != nil {
				return err
			}
			start := time.Now()
			if _, err := run.fn(sc); err != nil {
				return err
			}
			if i > 0 { // the first round warms both paths
				*run.into = append(*run.into, time.Since(start).Seconds())
			}
		}
	}
	o.set("guard.supervise_overhead_pct", 100*(median(supervised)/median(plain)-1), "%")
	return nil
}

// post sends one request to a handler with no socket in between.
func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// ladderSuite measures /v1/suite fanning four presets out to two
// workers, nine times, with fresh seeds so every spec runs.
func ladderSuite(o *outcome, smoke bool) error {
	suites := 9
	if smoke {
		suites = 3
	}
	srv, err := serve.New(serve.Config{Workers: lanes, Queue: 4})
	if err != nil {
		return err
	}
	h := srv.Handler()
	presets := scenario.SpecPresets()
	var ms []float64
	for i := 0; i < suites; i++ {
		specs := make([]scenario.Spec, 4)
		for j := range specs {
			specs[j] = presets[(i+2*j)%len(presets)]
			specs[j].Seed = int64(7_000 + 10*i + j)
		}
		body, err := json.Marshal(specs)
		if err != nil {
			return err
		}
		start := time.Now()
		rec := post(h, "/v1/suite", body)
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
		if rec.Code != http.StatusOK || bytes.Contains(rec.Body.Bytes(), []byte(`"error"`)) {
			return errors.New("suite rung: " + rec.Body.String())
		}
	}
	o.set("serve.suite4_p50_ms", median(ms), "ms")
	return srv.Drain()
}

// ladderDisk measures the on-disk cache: how long a restarted server
// takes to load a populated directory, and a hit served from a file the
// answering server has not seen (another server sharing the directory
// wrote it). The directory lives under the working directory and is
// removed afterwards.
func ladderDisk(o *outcome, smoke bool) error {
	seeds := int64(8)
	if smoke {
		seeds = 1
	}
	dir, err := os.MkdirTemp(".", ".benchmark-tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := serve.Config{Workers: 1, CacheDir: dir}
	reader, err := serve.New(cfg) // starts on the empty directory
	if err != nil {
		return err
	}
	writer, err := serve.New(cfg)
	if err != nil {
		return err
	}
	var bodies [][]byte
	for _, sp := range scenario.SpecPresets() {
		for j := int64(0); j < seeds; j++ {
			sp.Seed = 100 + j
			b, err := scenario.MarshalCanonical(&sp)
			if err != nil {
				return err
			}
			bodies = append(bodies, b)
			if rec := post(writer.Handler(), "/v1/run", b); rec.Code != http.StatusOK {
				return errors.New("disk rung: " + rec.Body.String())
			}
		}
	}
	if err := writer.Drain(); err != nil {
		return err
	}
	start := time.Now()
	if _, err := serve.New(cfg); err != nil {
		return err
	}
	o.set("serve.restart_load_s", time.Since(start).Seconds(), "s")
	var us []float64
	h := reader.Handler()
	for _, b := range bodies {
		start := time.Now()
		rec := post(h, "/v1/run", b)
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
		if rec.Header().Get("X-Powersim-Cache") != "hit" {
			return errors.New("disk rung: the reading server did not answer from the shared directory")
		}
	}
	o.set("serve.disk_hit_p50_us", median(us), "us")
	return reader.Drain()
}

// runLadder runs every workload-independent rung, one span each under
// parent.
func runLadder(o *outcome, smoke bool, parent int) error {
	ladder := o.spans.begin("ladder", parent)
	defer o.spans.end(ladder)
	for _, r := range []struct {
		name string
		run  func() error
	}{
		{"engine", func() error { ladderEngine(o, smoke); return nil }},
		{"link", func() error { ladderLink(o, smoke); return nil }},
		{"switch", func() error {
			o.set("swtch.forward_ns.t64", ladderSwitch(64, smoke), "ns")
			o.set("swtch.forward_ns.t10k", ladderSwitch(10_240, smoke), "ns")
			return nil
		}},
		{"laws", func() error { ladderLaws(o, smoke); return nil }},
		{"transport", func() error { return ladderTransport(o, smoke) }},
		{"spec", func() error { return ladderSpec(o, smoke) }},
		{"handler", func() error { return ladderHandler(o, smoke) }},
		{"guard", func() error { return ladderGuard(o, smoke) }},
		{"suite", func() error { return ladderSuite(o, smoke) }},
		{"disk", func() error { return ladderDisk(o, smoke) }},
	} {
		sp := o.spans.begin("rung:"+r.name, ladder)
		err := r.run()
		o.spans.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}
