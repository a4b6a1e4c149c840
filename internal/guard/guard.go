// Package guard supervises simulation runs: deterministic budgets,
// livelock detection, and panic capture around the scenario run path,
// so one broken or adversarial input produces a typed, replayable error
// instead of a wedged or dead process.
//
// # Determinism contract
//
// Supervision must never change what a healthy run computes. The
// supervisor therefore schedules nothing on the engine: it drives the
// run in sim-time slices (scenario.Prepared.DriveTo) and evaluates
// budgets between slices, at checkpoints that are pure sim-time
// coordinates. The event set executed below a sim time is identical at
// any partition count (the PDES fabric's core invariant), so the
// aggregate step count and live-packet watermark observed at a
// checkpoint — and hence WHICH checkpoint first exceeds a budget, and
// the watermark it reports — are byte-reproducible at a fixed seed and
// invariant across partitions 1/2/4/8. A supervised run that stays
// within budget produces byte-identical Result JSON to an unsupervised
// one.
//
// Two in-loop engine limits (sim.SetLimits) back the checkpoints up
// where sim-time slicing cannot reach:
//
//   - The livelock detector (always on): a model stuck scheduling
//     zero-delay events never advances the clock, so no checkpoint
//     would ever be reached. The engine trips after
//     sim.DefaultMaxSameInstant consecutive same-instant events and the
//     supervisor reports a LivelockError with the stuck (at, key).
//   - A hard step backstop (only with MaxEvents set): an event storm
//     advancing picoseconds per event reaches the next checkpoint only
//     after executing an unbounded number of events. The backstop caps
//     each engine at several times the whole-run budget so the
//     deterministic checkpoint trip fires first on every realistic
//     over-budget run; a backstop trip itself is still deterministic at
//     a fixed seed and partition count, but — being per-engine — not
//     partition-invariant, and is reported as BudgetExceeded with
//     Backstop set.
//
// Wall-clock deadlines are deliberately absent: they live strictly
// outside the sim path (cmd/powersimd and internal/serve carry them),
// keeping this package clean under the simclock analyzer and the
// determinism contract free of real-time dependence.
//
// # Repro bundles
//
// When a supervised run fails and the input is Spec-shaped, the
// supervisor writes a repro bundle — the canonical Spec JSON plus seed,
// partition count, and the error — under ReproDir, and the typed error
// carries the bundle path. `powersim -replay <bundle>` or a three-line test
// can re-run the exact failing input.
package guard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// DefaultCheckEvery is the budget checkpoint period: fine enough that
// an over-budget run is stopped within tens of microseconds of
// simulated time past its limit, coarse enough that checkpoint overhead
// (a handful of counter reads) is unmeasurable against the millions of
// events a slice executes.
const DefaultCheckEvery = 50 * sim.Microsecond

// backstopFactor sizes the per-engine hard step cap relative to
// MaxEvents. It must exceed 1 by enough that the aggregate checkpoint
// trip always fires first on runs whose clock advances (any engine
// reaching factor× the whole-run budget implies a checkpoint at the
// budget crossing came and went), with slack for the events of the
// first checkpoint slice.
const backstopFactor = 4

// backstopSlack is the additive floor of the step backstop, covering
// tiny budgets whose first checkpoint slice alone executes more than
// backstopFactor× the budget.
const backstopSlack = 1 << 20

// Budget bounds one supervised run. The zero value applies no budget
// (livelock detection stays on — it is a correctness check, not a
// quota).
type Budget struct {
	// MaxEvents caps events executed, aggregated across all engines
	// driving the fabric. 0 = unlimited.
	MaxEvents uint64
	// MaxSimTime caps the simulated time span (from time zero). A run
	// whose horizon exceeds it is cut off deterministically at the cap.
	// 0 = unlimited.
	MaxSimTime sim.Duration
	// MaxLivePackets caps the live pooled-packet watermark observed at
	// checkpoints, aggregated across partition pools. 0 = unlimited.
	// (Inert in the test-only pooling-disabled mode, where pools count
	// nothing.)
	MaxLivePackets uint64
	// CheckEvery is the checkpoint period; 0 uses DefaultCheckEvery.
	CheckEvery sim.Duration
	// MaxSameInstant overrides the livelock threshold; 0 keeps
	// sim.DefaultMaxSameInstant.
	MaxSameInstant uint64
}

// checkEvery returns the effective checkpoint period.
func (b Budget) checkEvery() sim.Duration {
	if b.CheckEvery > 0 {
		return b.CheckEvery
	}
	return DefaultCheckEvery
}

// BudgetExceeded reports a run stopped at a deterministic budget
// checkpoint (or, with Backstop set, by the per-engine hard step cap).
type BudgetExceeded struct {
	// Resource is "events", "sim_time", or "live_packets".
	Resource string
	// Limit is the configured budget, Observed the watermark that broke
	// it (events executed, picoseconds of horizon, or live packets).
	Limit    uint64
	Observed uint64
	// At is the sim-time checkpoint that tripped.
	At sim.Time
	// Backstop marks an in-loop per-engine step-cap trip instead of a
	// checkpoint trip (deterministic at fixed seed and parts, but not
	// partition-invariant).
	Backstop bool
	// Bundle is the repro bundle path ("" when none was written).
	Bundle string
}

func (e *BudgetExceeded) Error() string {
	kind := "budget"
	if e.Backstop {
		kind = "backstop"
	}
	return fmt.Sprintf("guard: %s budget exceeded at sim time %v (%s: limit %d, observed %d)%s",
		e.Resource, e.At, kind, e.Limit, e.Observed, bundleSuffix(e.Bundle))
}

// LivelockError reports a run whose clock stopped advancing: the engine
// fired SameRun consecutive events at instant At without time moving,
// with Key the canonical key of the next event it refused to execute.
type LivelockError struct {
	At      sim.Time
	Key     sim.Key
	SameRun uint64
	// Bundle is the repro bundle path ("" when none was written).
	Bundle string
}

func (e *LivelockError) Error() string {
	return fmt.Sprintf("guard: livelock: clock stuck at %v after %d same-instant events (next key phash=%#x k=%d)%s",
		e.At, e.SameRun, e.Key.PHash, e.Key.K, bundleSuffix(e.Bundle))
}

// PanicError reports a crash on the run path, converted to an error by
// Capture. Value is the recovered panic value and Stack the goroutine
// stack at the panic site.
type PanicError struct {
	Value any
	Stack []byte
	// Bundle is the repro bundle path ("" when none was written).
	Bundle string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("guard: run panicked: %v%s\n%s", e.Value, bundleSuffix(e.Bundle), e.Stack)
}

func bundleSuffix(path string) string {
	if path == "" {
		return ""
	}
	return " [repro: " + path + "]"
}

// Capture invokes run, converting a panic into a *PanicError. It is the
// minimal supervision layer — suite runners wrap each per-spec run in
// Capture so one crashing spec cannot take down its siblings or the
// process. By design it does NOT release or recycle anything the run
// allocated: a mid-panic lab is in an unknown state and must fall to
// the garbage collector, never back into the scratch pool.
func Capture(run func() (*scenario.Result, error)) (res *scenario.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return run()
}

// Supervisor runs scenarios under a Budget with panic capture and
// optional repro bundling. The zero value is usable: no budgets, no
// bundle dir, livelock detection on.
type Supervisor struct {
	Budget Budget
	// ReproDir, when non-empty, receives a repro bundle for every
	// supervised failure of a Spec-shaped run (RunSpec).
	ReproDir string

	// instrument, when set, appends probes to every Spec-built scenario —
	// the Tamper-style injection seam the supervisor's own tests use to
	// plant crashes and livelocks inside otherwise healthy specs.
	// Production callers leave it nil.
	instrument []scenario.Probe
}

// RunScenario executes an already-built Scenario under the supervisor's
// budget. Scenarios are single-use; the caller loses nothing on
// failure because the input is consumed either way. No repro bundle is
// written (a built Scenario has no serializable form — use RunSpec for
// that).
func (s *Supervisor) RunScenario(sc scenario.Scenario) (*scenario.Result, error) {
	return Capture(func() (*scenario.Result, error) {
		p, err := scenario.Prepare(sc)
		if err != nil {
			return nil, err
		}
		if err := s.drive(p); err != nil {
			// Typed-error paths may recycle: the engines froze at a
			// well-defined point and Release resets them.
			p.Release()
			return nil, err
		}
		res, err := p.Finish()
		p.Release()
		return res, err
	})
}

// RunSpec builds and executes a Spec at the given partition count under
// the supervisor's budget. On a supervised failure (panic, livelock,
// budget) with ReproDir set, a repro bundle is written and its path
// attached to the returned error.
func (s *Supervisor) RunSpec(sp *scenario.Spec, parts int) (*scenario.Result, error) {
	if parts < 1 {
		parts = 1
	}
	res, err := Capture(func() (*scenario.Result, error) {
		sc, err := sp.Build(parts)
		if err != nil {
			return nil, err
		}
		sc.Probes = append(sc.Probes, s.instrument...)
		return s.RunScenario(sc)
	})
	if err != nil && s.ReproDir != "" {
		s.attachBundle(err, sp, parts)
	}
	return res, err
}

// drive advances a prepared run to its (possibly budget-clamped)
// horizon in checkpoint slices, enforcing the budget between slices.
func (s *Supervisor) drive(p *scenario.Prepared) error {
	b := s.Budget
	horizon := p.Horizon()
	end := horizon
	if b.MaxSimTime > 0 && sim.Time(0).Add(b.MaxSimTime) < horizon {
		end = sim.Time(0).Add(b.MaxSimTime)
	}
	var backstop uint64
	if b.MaxEvents > 0 {
		backstop = backstopFactor*b.MaxEvents + backstopSlack
	}
	p.ArmLimits(backstop, b.MaxSameInstant)

	step := b.checkEvery()
	for t := sim.Time(0); t < end; {
		t = t.Add(step)
		if t > end {
			t = end
		}
		p.DriveTo(t)
		if tr := p.Trip(); tr != nil {
			return tripError(tr, p.Steps())
		}
		if b.MaxEvents > 0 && p.Steps() > b.MaxEvents {
			return &BudgetExceeded{Resource: "events", Limit: b.MaxEvents, Observed: p.Steps(), At: t}
		}
		if b.MaxLivePackets > 0 && p.LivePackets() > b.MaxLivePackets {
			return &BudgetExceeded{Resource: "live_packets", Limit: b.MaxLivePackets, Observed: p.LivePackets(), At: t}
		}
	}
	if end < horizon {
		// The sim-time budget cuts the run off below its own horizon —
		// an unconditional, trivially partition-invariant trip.
		return &BudgetExceeded{Resource: "sim_time", Limit: uint64(b.MaxSimTime), Observed: uint64(horizon), At: end}
	}
	return nil
}

// tripError converts an in-loop engine trip into the matching typed
// error. aggSteps is the fabric-wide step count at the stop, reported
// as the observed watermark for step-cap trips.
func tripError(tr *sim.Trip, aggSteps uint64) error {
	switch tr.Reason {
	case sim.TripLivelock:
		return &LivelockError{At: tr.At, Key: tr.Key, SameRun: tr.SameRun}
	default:
		return &BudgetExceeded{Resource: "events", Limit: tr.Steps, Observed: aggSteps, At: tr.At, Backstop: true}
	}
}

// ReproBundle is the replayable record of a supervised failure: the
// exact run input plus the error that stopped it. Spec is embedded in
// canonical form, so `scenario.DecodeSpec` (or `powersim -replay <bundle>`)
// reproduces the identical cache key and run.
type ReproBundle struct {
	V     int             `json:"v"`
	Spec  json.RawMessage `json:"spec"`
	Seed  int64           `json:"seed"`
	Parts int             `json:"parts"`
	Error string          `json:"error"`
}

// WriteBundle pins a failing (spec, parts) run plus its error under
// dir, named by the run's content address, and returns the path.
func WriteBundle(dir string, sp *scenario.Spec, parts int, runErr error) (string, error) {
	canon, err := scenario.MarshalCanonical(sp)
	if err != nil {
		return "", err
	}
	key, err := scenario.SpecKey(sp, sp.Seed, parts)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(&ReproBundle{
		V:     scenario.SpecVersion,
		Spec:  canon,
		Seed:  sp.Seed,
		Parts: parts,
		Error: runErr.Error(),
	}, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "repro-"+key[:16]+".json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// attachBundle writes a repro bundle for a supervised failure and
// stamps its path into the typed error. Non-supervised errors (a
// malformed Spec failing Build) carry no bundle — the input never ran.
func (s *Supervisor) attachBundle(err error, sp *scenario.Spec, parts int) {
	var slot *string
	switch e := err.(type) {
	case *PanicError:
		slot = &e.Bundle
	case *LivelockError:
		slot = &e.Bundle
	case *BudgetExceeded:
		slot = &e.Bundle
	default:
		return
	}
	if path, werr := WriteBundle(s.ReproDir, sp, parts, err); werr == nil {
		*slot = path
	}
}
