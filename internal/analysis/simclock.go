package analysis

import (
	"go/ast"
	"go/types"
)

// Simclock bans wall-clock reads and global (unseeded, process-shared)
// randomness in simulation-path packages. Simulated time must come from
// the engine clock (sim.Engine.Now) and every random draw from the
// per-run seeded *rand.Rand, or fixed-seed runs stop being replayable.
//
// Banned: time.Now/Since/Until and the runtime-timer constructors
// (Sleep, After, AfterFunc, Tick, NewTimer, NewTicker), plus every
// package-level math/rand and math/rand/v2 function except the
// explicit-source constructors (New, NewSource, NewZipf, NewPCG,
// NewChaCha8) — rand.New(rand.NewSource(seed)) is the sanctioned
// pattern, rand.Intn is a draw from process-global state.
//
// There is no in-tree justification for a wall-clock read on the
// simulation path, so the suppression directive (`//powervet:clock`)
// exists for completeness but the tree is expected to carry none;
// packages where the wall clock is the point (serve's admission control)
// are excluded wholesale with a documented reason in ExcludedPackages.
var Simclock = &Analyzer{
	Name:      "simclock",
	Doc:       "bans time.Now/time.Since and global math/rand in simulation-path packages",
	Directive: "clock",
	Run:       runSimclock,
}

// bannedTimeFuncs are the package-level time functions that read the
// wall clock or arm runtime timers.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTimer": true, "NewTicker": true,
}

// allowedRandFuncs are the math/rand constructors that take an explicit
// source or seed; everything else package-level draws from the shared
// global generator.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runSimclock(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// Only function references are draws or clock reads; type
			// references like `*rand.Rand` in a signature are how the
			// sanctioned seeded generator is passed around.
			obj, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok || obj.Pkg() == nil {
				return true
			}
			// Only package-qualified references count: methods on a
			// *rand.Rand (a seeded generator) or on time.Time values
			// are fine, as is a local variable that shadows the
			// package name.
			if !isPackageQualifier(pass, sel) {
				return true
			}
			switch obj.Pkg().Path() {
			case "time":
				if bannedTimeFuncs[obj.Name()] {
					pass.Reportf(sel.Pos(), "time.%s on the simulation path (use the engine clock: sim.Engine.Now / sim.Timer)", obj.Name())
				}
			case "math/rand", "math/rand/v2":
				if !allowedRandFuncs[obj.Name()] {
					pass.Reportf(sel.Pos(), "global %s.%s on the simulation path (draw from the per-run seeded *rand.Rand instead)", obj.Pkg().Name(), obj.Name())
				}
			}
			return true
		})
	}
}

// isPackageQualifier reports whether sel's base expression names an
// imported package (as opposed to a value whose methods happen to
// collide, e.g. a *rand.Rand variable named rand).
func isPackageQualifier(pass *Pass, sel *ast.SelectorExpr) bool {
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	_, isPkgName := pass.Info.Uses[id].(*types.PkgName)
	return isPkgName
}
