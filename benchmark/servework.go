package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"repro/internal/scenario"
	"repro/internal/serve"
)

// lanes is the number of client connections of serve-mix: one per CPU of
// the host the benchmark was designed on. Each is a closed loop — it
// sends its next request when the previous reply has been read — which
// is how a figure-regeneration worker uses powersimd.
const lanes = 2

// request is one POST /v1/run of the schedule.
type request struct {
	index int    // position in the whole schedule: the id its spans share
	body  []byte // canonical Spec bytes
	key   int    // working-set key, or -1 for a fresh seed
	hit   bool   // whether the server must answer from its cache
}

// serveInput is the generated schedule, already dealt to the lanes.
//
// A working-set key belongs to one lane, so a key's first touch and all
// its later hits are ordered by that lane's own sequence. If both lanes
// could touch a key, two first touches could overlap, both would run
// (the server has no single-flight), and the hit and miss counts would
// depend on timing.
type serveInput struct {
	lane   [lanes][]request
	hits   int
	misses int
	digest string
}

func (in *serveInput) requests() int { return in.hits + in.misses }

// genServeMix builds the schedule: per lane, working-set draws over that
// lane's half of the 72 keys (9 presets × 8 seeds) and fresh-seed
// requests that always miss, shuffled. The counts are exact, not drawn:
// 20,000 requests of which 396 are fresh, 44 of each preset, so every
// seed asks for the same amount of simulation. With the 72 first
// touches that is 2.3% misses; a miss costs 8 ms on average against
// 55 µs for a hit, so even at that share the misses are most of a
// repetition's wall time.
func genServeMix(seed int64, size mixSize) (*serveInput, error) {
	perLane, freshPerPreset := size.perLane, size.freshPerPreset
	presets := scenario.SpecPresets()
	body := func(p scenario.Spec, s int64) ([]byte, error) {
		p.Seed = s
		return scenario.MarshalCanonical(&p)
	}
	var keyBody [][]byte
	for _, p := range presets {
		for j := int64(0); j < int64(size.seedsPerPreset); j++ {
			b, err := body(p, 100+j)
			if err != nil {
				return nil, err
			}
			keyBody = append(keyBody, b)
		}
	}
	in := &serveInput{}
	rng := rand.New(rand.NewSource(seed))
	h := sha256.New()
	for l := 0; l < lanes; l++ {
		var mine []int
		for k := range keyBody {
			if k%lanes == l {
				mine = append(mine, k)
			}
		}
		reqs := make([]request, 0, perLane)
		for pi, p := range presets {
			for j := 0; j < freshPerPreset; j++ {
				// Fresh seeds never repeat within a schedule and differ
				// between seeds.
				s := 1_000_000*(seed+1) + int64(l)*100_000 + int64(pi)*1_000 + int64(j)
				b, err := body(p, s)
				if err != nil {
					return nil, err
				}
				reqs = append(reqs, request{body: b, key: -1})
			}
		}
		for len(reqs) < perLane {
			k := mine[rng.Intn(len(mine))]
			reqs = append(reqs, request{body: keyBody[k], key: k})
		}
		rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		seen := map[int]bool{}
		for i := range reqs {
			r := &reqs[i]
			r.index = i*lanes + l
			r.hit = r.key >= 0 && seen[r.key]
			if r.key >= 0 {
				seen[r.key] = true
			}
			if r.hit {
				in.hits++
			} else {
				in.misses++
			}
			h.Write(r.body)
		}
		in.lane[l] = reqs
	}
	in.digest = hex.EncodeToString(h.Sum(nil))
	return in, nil
}

// mixSize scales the schedule.
type mixSize struct{ perLane, freshPerPreset, seedsPerPreset int }

var (
	fullMix  = mixSize{10_000, 22, 8}
	miniMix  = mixSize{1_000, 2, 8} // the serving rung of the simulator workloads' traced runs
	smokeMix = mixSize{100, 1, 2}
)

func (c runCfg) mix() mixSize {
	if c.smoke {
		return smokeMix
	}
	return fullMix
}

// sample is one answered request.
type sample struct {
	ns  float64
	hit bool
}

// replayResult is what one replay of the schedule yields.
type replayResult struct {
	samples  []sample
	failed   int
	problems []string
	digest   string // sha256 over every reply body in schedule order per lane
}

// replay sends the schedule to url, one closed loop per lane, and checks
// every reply: status 200, the cache header the schedule predicts, and
// on a hit the very bytes the miss that created the entry returned. With
// tr set, each lane records one span per request.
func replay(url string, in *serveInput, tr *tracer, parent int) replayResult {
	var (
		wg   sync.WaitGroup
		out  [lanes]replayResult
		trs  [lanes]*tracer
		sums [lanes][]byte
	)
	for l := 0; l < lanes; l++ {
		if tr != nil {
			trs[l] = &tracer{}
		}
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			// Its own Transport gives the lane its own keep-alive
			// connection.
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			res := &out[l]
			res.samples = make([]sample, 0, len(in.lane[l]))
			first := map[int][]byte{}
			h := sha256.New()
			var buf bytes.Buffer
			bad := func(r *request, format string, args ...any) {
				res.failed++
				if len(res.problems) < 5 {
					res.problems = append(res.problems, fmt.Sprintf("request %d: ", r.index)+fmt.Sprintf(format, args...))
				}
			}
			for i := range in.lane[l] {
				r := &in.lane[l][i]
				sp := trs[l].begin("request", -1)
				t0 := time.Now()
				resp, err := client.Post(url+"/v1/run", "application/json", bytes.NewReader(r.body))
				if err != nil {
					trs[l].end(sp)
					bad(r, "%v", err)
					continue
				}
				buf.Reset()
				_, err = io.Copy(&buf, resp.Body)
				resp.Body.Close()
				ns := float64(time.Since(t0).Nanoseconds())
				trs[l].end(sp)
				if trs[l] != nil {
					s := &trs[l].spans[sp]
					s.Req, s.Tag = r.index, "miss"
					if r.hit {
						s.Tag = "hit"
					}
				}
				res.samples = append(res.samples, sample{ns, r.hit})
				h.Write(buf.Bytes())
				want := "miss"
				if r.hit {
					want = "hit"
				}
				switch got := resp.Header.Get("X-Powersim-Cache"); {
				case err != nil:
					bad(r, "reading reply: %v", err)
				case resp.StatusCode != http.StatusOK:
					bad(r, "status %d: %.200s", resp.StatusCode, buf.String())
				case got != want:
					bad(r, "cache header %q, schedule says %q", got, want)
				case r.hit && !bytes.Equal(buf.Bytes(), first[r.key]):
					bad(r, "hit bytes differ from the miss that made the entry")
				case !r.hit && r.key >= 0:
					first[r.key] = append([]byte(nil), buf.Bytes()...)
				}
			}
			sums[l] = h.Sum(nil)
		}(l)
	}
	wg.Wait()
	var all replayResult
	h := sha256.New()
	for l := 0; l < lanes; l++ {
		all.samples = append(all.samples, out[l].samples...)
		all.failed += out[l].failed
		all.problems = append(all.problems, out[l].problems...)
		h.Write(sums[l])
		if tr != nil {
			tr.merge(trs[l], parent)
		}
	}
	all.digest = hex.EncodeToString(h.Sum(nil))
	return all
}

// servePass is one whole repetition of serve-mix.
type servePass struct {
	run, operate float64 // seconds
	replay       replayResult
	stats        serve.Stats
	liveMB       float64
}

// runServePass starts a fresh memory-cache server behind a real loopback
// listener, replays the schedule, reads /v1/stats, and drains. A fresh
// server per pass is what makes every pass the same work. The forced
// collection sits after the replay, clock stopped, server still up, as
// in a simulator pass.
func runServePass(in *serveInput, clock *hostClock, tr *tracer, parent int) (servePass, error) {
	var out servePass
	pass := tr.begin("pass", parent)
	defer tr.end(pass)

	t0 := time.Now()
	sp := tr.begin("prepare", pass)
	srv, err := serve.New(serve.Config{Workers: lanes, Queue: 4})
	if err != nil {
		return out, err
	}
	ts := httptest.NewServer(srv.Handler())
	tr.end(sp)
	defer ts.Close()
	t1 := time.Now()
	sp = tr.begin("drive", pass)
	out.replay = replay(ts.URL, in, tr, sp)
	tr.end(sp)
	t2 := time.Now()
	out.liveMB = liveHeapMB(true)
	if clock != nil {
		clock.tick()
	}
	stats, err := fetchStats(ts.URL)
	if err != nil {
		return out, err
	}
	out.stats = stats
	t3 := time.Now()
	sp = tr.begin("finish", pass)
	err = srv.Drain()
	ts.Close()
	tr.end(sp)
	if err != nil {
		return out, err
	}
	t4 := time.Now()
	out.operate = t2.Sub(t1).Seconds()
	out.run = t1.Sub(t0).Seconds() + out.operate + t4.Sub(t3).Seconds()

	want := serve.Stats{
		Requests:  uint64(in.requests()),
		CacheHits: uint64(in.hits),
		Runs:      uint64(in.misses),
		Entries:   in.misses,
	}
	// The /v1/stats request itself is not a run request.
	if stats != want {
		out.replay.failed++
		out.replay.problems = append(out.replay.problems,
			fmt.Sprintf("/v1/stats %+v, schedule says %+v", stats, want))
	}
	return out, nil
}

func fetchStats(url string) (serve.Stats, error) {
	var st serve.Stats
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// latencies splits a replay's samples into sorted microsecond slices:
// all requests, hits, misses.
func latencies(samples []sample) (all, hit, miss []float64) {
	for _, s := range samples {
		us := s.ns / 1e3
		all = append(all, us)
		if s.hit {
			hit = append(hit, us)
		} else {
			miss = append(miss, us)
		}
	}
	sort.Float64s(all)
	sort.Float64s(hit)
	sort.Float64s(miss)
	return
}

// measureServe runs serve-mix untraced: generate the schedule, one cold
// pass, then timed repetitions on fresh servers.
func measureServe(c runCfg) (*outcome, error) {
	clock := newHostClock(c.smoke)
	start := time.Now()
	in, err := genServeMix(c.seed, c.mix())
	if err != nil {
		return nil, err
	}
	genS := time.Since(start).Seconds()
	o := &outcome{Workload: "serve-mix", Seed: c.seed, InputDigest: in.digest}

	cold, err := runServePass(in, clock, nil, -1)
	if err != nil {
		return nil, err
	}
	o.note(cold.replay, in.requests(), "cold pass")
	o.ResultDigest = cold.replay.digest
	setup := clock.ref(genS + cold.run)

	st := repStats{clock: clock}
	for st.more(c) {
		m0 := markMem()
		p, err := runServePass(in, clock, nil, -1)
		if err != nil {
			return nil, err
		}
		m1 := markMem()
		st.add(p.run, p.operate, m0, m1, p.liveMB)
		o.note(p.replay, in.requests(), fmt.Sprintf("repetition %d", len(st.run)))
		if p.replay.digest != cold.replay.digest {
			o.fail("repetition %d: reply sha256 differs from the cold pass's", len(st.run))
		}
	}
	st.report(o, setup, uint64(in.requests()))
	return o, nil
}

// note counts one replay's requests and failures into the outcome.
func (o *outcome) note(r replayResult, requests int, what string) {
	o.Attempted += requests
	o.Failed += r.failed
	for _, p := range r.problems {
		o.Problems = append(o.Problems, what+": "+p)
	}
}
