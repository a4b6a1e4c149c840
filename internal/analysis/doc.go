// Package analysis implements powervet, the repo's compile-time
// determinism and hot-path linter: a small go/analysis-shaped framework
// (Analyzer, Pass, Diagnostic) built on the standard library's
// go/parser + go/types source importer, plus four repo-specific
// analyzers that prove the simulator's two load-bearing guarantees
// statically instead of sampling them at runtime:
//
//   - detrange: no iteration over unordered maps in simulation-path
//     packages, unless the loop body is provably order-insensitive or
//     the site carries a justified //powervet:ordered comment.
//   - simclock: no time.Now/time.Since/global math/rand in
//     simulation-path packages — simulated time comes from the engine
//     clock and randomness from the per-run seeded RNG.
//   - pooluse: no use-after-Put or double-Put of packet.Pool packets,
//     and no use of a sim.Event handle after Engine.Cancel, within a
//     basic block (the bug class PERF.md's pooling invariants document);
//     and no write to a packet's Next outside internal/queue and
//     internal/packet — a packet is linked into its one queue by
//     queue.FIFO alone. (A packet's hop storage is unexported, so the
//     compiler keeps INT stamping on packet.Pool.Stamp.)
//   - resultorder: a slice collected from map iteration must be sorted
//     before it is ranged over or handed to an encoder — the rule that
//     keeps Result envelopes byte-identical at fixed seeds.
//
// A finding is suppressed by a line comment of the form
//
//	//powervet:<directive> <justification>
//
// on the flagged line or the line above it; the justification is
// mandatory, so every suppression in the tree is self-explaining. The
// driver is cmd/powervet (`go run ./cmd/powervet ./...`), wired into CI
// as a hard gate. The API mirrors golang.org/x/tools/go/analysis so the
// analyzers can be ported to a real `go vet -vettool` multichecker
// mechanically once that dependency is available; the build environment
// for this repo is offline, so the framework stays stdlib-only.
package analysis
