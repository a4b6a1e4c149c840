package main

import (
	"fmt"
	"time"

	"repro/internal/scenario"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is everything one run of one workload reports: the contract's
// four fields (correct is "no problems"), the metrics of the mode it ran
// in, and the identities a reviewer needs to see that two runs did the
// same work on the same inputs.
type outcome struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Trace        bool               `json:"trace"`
	K            int                `json:"k"`
	Ops          uint64             `json:"ops"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Problems     []string           `json:"problems,omitempty"`
	InputDigest  string             `json:"input_sha256"`
	ResultDigest string             `json:"result_sha256"`
	Metrics      map[string]metric  `json:"metrics"`
	Guards       map[string]float64 `json:"model_guards,omitempty"`
	// Wall seconds of every repetition, unconverted, and every
	// calibration sample in the order taken (one before the cold pass,
	// one inside every pass after its operate phase), for a reader who
	// wants the raw clock.
	RepRun     []float64  `json:"rep_run_wall_s,omitempty"`
	RepOperate []float64  `json:"rep_operate_wall_s,omitempty"`
	Calib      []float64  `json:"calibration_s"`
	Host       *hostBlock `json:"host,omitempty"`

	spans *tracer
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.Metrics == nil {
		o.Metrics = map[string]metric{}
	}
	o.Metrics[name] = metric{v, unit}
}

func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

// runCfg is how one workload is to be run.
type runCfg struct {
	seed    int64
	seconds float64
	smoke   bool
	trace   bool
}

// minReps is the fewest timed repetitions behind any reported median.
func (c runCfg) minReps() int {
	if c.smoke {
		return 2
	}
	return 3
}

// maxReps bounds a run whose repetitions turn out much shorter than
// expected.
const maxReps = 15

// repStats accumulates the timed repetitions of one workload and turns
// them into the end-to-end metrics. Every metric is a median over the
// repetitions; ops is the same in each of them. Times are kept both as
// the wall clock read them and in reference seconds.
type repStats struct {
	clock              *hostClock
	run, operate       []float64 // wall seconds
	refRun, refOperate []float64 // reference seconds
	allocMB, mallocs   []float64
	liveMB             float64 // last repetition
}

// add records one repetition; the pass took the calibration sample that
// closes it.
func (s *repStats) add(run, operate float64, m0, m1 memMark, liveMB float64) {
	s.run = append(s.run, run)
	s.operate = append(s.operate, operate)
	s.refRun = append(s.refRun, s.clock.ref(run))
	s.refOperate = append(s.refOperate, s.clock.ref(operate))
	s.allocMB = append(s.allocMB, float64(m1.totalAlloc-m0.totalAlloc)/mb)
	s.mallocs = append(s.mallocs, float64(m1.mallocs-m0.mallocs))
	s.liveMB = liveMB
}

func (s *repStats) elapsed() float64 {
	var t float64
	for _, r := range s.run {
		t += r
	}
	return t
}

func (s *repStats) more(c runCfg) bool {
	k := len(s.run)
	return k < c.minReps() || (s.elapsed() < c.seconds && k < maxReps)
}

func (s *repStats) report(o *outcome, setup float64, ops uint64) {
	o.K = len(s.run)
	o.Ops = ops
	o.RepRun, o.RepOperate, o.Calib = s.run, s.operate, s.clock.samples
	o.set("setup_s", setup, "s")
	o.set("run_s", median(s.refRun), "s")
	o.set("ops_per_sec", float64(ops)/median(s.refOperate), "1/s")
	o.set("live_heap_mb", s.liveMB, "MB")
	o.set("alloc_mb_per_run", median(s.allocMB), "MB")
	o.set("allocs_per_kop", median(s.mallocs)/(float64(ops)/1000), "count")
}

// guardNames are the simulated statistics a simulator-only speed-up must
// leave identical; they are exact at a fixed seed.
var guardNames = []string{"short_p999", "long_p999", "completed", "bytes_delivered", "bytes_lost_fail"}

func guards(res *scenario.Result) map[string]float64 {
	g := map[string]float64{}
	for _, n := range guardNames {
		g[n] = res.Scalar(n)
	}
	return g
}

// measureSim runs one simulator workload untraced: generate the input,
// one cold pass, then timed repetitions of the identical pass until the
// requested seconds are spent (never fewer than minReps).
func measureSim(gen func(seed int64, smoke bool) *simInput, c runCfg) (*outcome, error) {
	clock := newHostClock(c.smoke)
	start := time.Now()
	in := gen(c.seed, c.smoke)
	genS := time.Since(start).Seconds()
	o := &outcome{Workload: in.name, Seed: c.seed, InputDigest: in.digest}

	cold, err := runPass(in.build, in.hasFCT, passOpts{live: true, clock: clock})
	if err != nil {
		return nil, err
	}
	o.Attempted = 1
	for _, p := range cold.problems {
		o.fail("cold pass: %s", p)
	}
	o.ResultDigest = cold.digest
	o.Guards = guards(cold.result)
	setup := clock.ref(genS + cold.times.total())

	st := repStats{clock: clock}
	for st.more(c) {
		m0 := markMem()
		p, err := runRep(in, passOpts{live: true, clock: clock})
		if err != nil {
			return nil, err
		}
		m1 := markMem()
		st.add(p.times.total(), p.times.drive, m0, m1, p.liveMB)
		o.Attempted++
		checkRep(o, len(st.run), p, cold)
	}
	st.report(o, setup, cold.ops)
	return o, nil
}

// checkRep holds a repetition to the cold pass: fixed seed means a
// byte-identical Result and the same event count.
func checkRep(o *outcome, i int, p, cold simPass) {
	switch {
	case len(p.problems) > 0:
		o.fail("repetition %d: %v", i, p.problems)
	case p.digest != cold.digest:
		o.fail("repetition %d: result sha256 %.12s differs from the cold pass's %.12s", i, p.digest, cold.digest)
	case p.ops != cold.ops:
		o.fail("repetition %d: %d events, cold pass ran %d", i, p.ops, cold.ops)
	}
}
