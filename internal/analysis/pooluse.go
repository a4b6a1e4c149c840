package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Pooluse checks the pooling invariants PERF.md documents but nothing
// machine-checks: after `pool.Put(p)` the packet belongs to an
// unrelated future sender, so touching p — or Putting it a second time
// — corrupts simulation state in a way that only surfaces later as an
// impossible packet. Likewise a sim.Event handle is stale after
// Engine.Cancel: further Scheduled/Cancel calls on it answer
// for a recycled node and always report the constant no-event answer,
// which almost always means the code meant to track a new handle.
//
// The analysis is block-local dataflow, matching how the bug class
// actually appears (release then touch within one function): within
// each statement list, a release call (packet.Pool.Put, sim.Engine
// Cancel) marks its identifier operand released; any later statement in
// the same list that mentions the identifier is flagged, until an
// assignment to it kills the released state. Uses in sibling branches
// or across loop iterations are out of scope — the runtime
// pooled-vs-unpooled determinism suite still covers those.
//
// It also keeps queue links in the queues: a packet waits in at most one
// queue, which links it through Packet.Next, so a write to Next outside
// internal/queue and internal/packet — an assignment or a composite
// literal key — is flagged; it would splice the packet into, or cut it
// out of, a queue behind the queue's back.
var Pooluse = &Analyzer{
	Name:      "pooluse",
	Doc:       "flags use-after-Put/double-Put of pooled packets, use of cancelled event handles, and queue links written outside the queues",
	Directive: "pool",
	Run:       runPooluse,
}

// releaseTable maps (package path, receiver type, method) to the
// argument index that the call releases.
type releaseSig struct {
	pkg    string
	recv   string
	method string
}

var releaseFuncs = map[releaseSig]struct {
	arg  int
	what string // noun for diagnostics
}{
	{pkg: "repro/internal/packet", recv: "Pool", method: "Put"}:   {arg: 0, what: "packet"},
	{pkg: "repro/internal/sim", recv: "Engine", method: "Cancel"}: {arg: 0, what: "event handle"},
}

func runPooluse(pass *Pass) {
	checkQueueLinks(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				body = n.Body
			case *ast.FuncLit:
				body = n.Body
			}
			if body == nil {
				return true
			}
			// Walk every statement list inside the function
			// independently; nested function literals are visited by
			// the outer Inspect, so skip them here.
			ast.Inspect(body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok && n != nil {
					return false
				}
				switch n := n.(type) {
				case *ast.BlockStmt:
					checkStmtList(pass, n.List)
				case *ast.CaseClause:
					checkStmtList(pass, n.Body)
				case *ast.CommClause:
					checkStmtList(pass, n.Body)
				}
				return true
			})
			return false // the inner Inspect handled this function's body
		})
	}
}

// released records where an object was released within the current
// statement list.
type released struct {
	pos  token.Pos
	what string
}

// checkStmtList runs the release/use scan over one straight-line
// statement list.
func checkStmtList(pass *Pass, list []ast.Stmt) {
	freed := map[types.Object]released{}
	for _, st := range list {
		// Uses of already-freed objects anywhere in this statement,
		// except positions that kill (assignment LHS) or re-release
		// (second Put — reported as double release).
		if len(freed) > 0 {
			reportFreedUses(pass, st, freed)
		}
		// Kills: plain assignment to the object gives it a fresh value.
		if as, ok := st.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if obj := usedObject(pass.Info, lhs); obj != nil {
					delete(freed, obj)
				}
			}
		}
		// New releases introduced by this statement. Only releases that
		// execute unconditionally count: the scan stops at nested
		// statement lists (if/for/switch bodies), which run their own
		// scan with a fresh state — a conditional Put does not poison
		// the fall-through path.
		ast.Inspect(st, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.FuncLit, *ast.BlockStmt:
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			rel, obj := releaseCall(pass.Info, call)
			if obj == nil {
				return true
			}
			freed[obj] = released{pos: call.Pos(), what: rel.what}
			return true
		})
	}
}

// reportFreedUses flags identifiers in st that refer to freed objects,
// skipping assignment left-hand sides (kills) and the release calls
// themselves (double releases are reported separately).
func reportFreedUses(pass *Pass, st ast.Stmt, freed map[types.Object]released) {
	killed := map[types.Object]bool{}
	if as, ok := st.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if obj := usedObject(pass.Info, id); obj != nil {
					killed[obj] = true
				}
			}
		}
	}
	// Identifiers that are the operand of a release call in this
	// statement: a second release of a freed object is a double
	// release, not a plain use.
	releaseOperand := map[*ast.Ident]bool{}
	ast.Inspect(st, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if rel, _ := releaseCall(pass.Info, call); rel.what != "" {
			if id, ok := ast.Unparen(call.Args[relArgIndex(pass.Info, call)]).(*ast.Ident); ok {
				releaseOperand[id] = true
			}
		}
		return true
	})
	ast.Inspect(st, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil || killed[obj] {
			return true
		}
		rel, wasFreed := freed[obj]
		if !wasFreed {
			return true
		}
		if releaseOperand[id] {
			pass.Reportf(id.Pos(), "double release of %s %s (already released at line %d)",
				rel.what, obj.Name(), pass.Fset.Position(rel.pos).Line)
		} else {
			pass.Reportf(id.Pos(), "use of %s %s after it was released at line %d (released storage is recycled; copy what you need before the release)",
				rel.what, obj.Name(), pass.Fset.Position(rel.pos).Line)
		}
		// Report each object once per block to keep the signal
		// readable.
		delete(freed, obj)
		return true
	})
}

// releaseCall reports whether call is a registered release call and
// resolves its released identifier operand (nil when the operand is
// not a plain identifier).
func releaseCall(info *types.Info, call *ast.CallExpr) (struct {
	arg  int
	what string
}, types.Object) {
	var zero struct {
		arg  int
		what string
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return zero, nil
	}
	named := recvNamed(fn)
	if named == nil {
		return zero, nil
	}
	sig := releaseSig{pkg: funcPkgPath(fn), recv: named.Obj().Name(), method: fn.Name()}
	rel, ok := releaseFuncs[sig]
	if !ok || rel.arg >= len(call.Args) {
		return zero, nil
	}
	return rel, usedObject(info, call.Args[rel.arg])
}

// relArgIndex returns the released-argument index of a known release
// call (0 when the call is not registered; callers gate on releaseCall
// first).
func relArgIndex(info *types.Info, call *ast.CallExpr) int {
	fn := calleeFunc(info, call)
	if fn == nil {
		return 0
	}
	named := recvNamed(fn)
	if named == nil {
		return 0
	}
	if rel, ok := releaseFuncs[releaseSig{pkg: funcPkgPath(fn), recv: named.Obj().Name(), method: fn.Name()}]; ok {
		return rel.arg
	}
	return 0
}

const (
	packetPkgPath = "repro/internal/packet"
	queuePkgPath  = "repro/internal/queue"
)

// checkQueueLinks flags every write to the Next field of a
// packet.Packet — an assignment to it, or a Next key in a composite
// literal — except in the queue package, which links packets, and the
// packet package, which declares the field.
func checkQueueLinks(pass *Pass) {
	if p := pass.Pkg.Path(); p == packetPkgPath || p == queuePkgPath {
		return
	}
	report := func(n ast.Node, what string) {
		pass.Reportf(n.Pos(), "write to %s outside internal/queue: a packet is linked into a queue only by queue.FIFO, and unlinked by its Pop", what)
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && isPacketField(pass.Info, sel, "Next") {
						report(n, types.ExprString(sel))
					}
				}
			case *ast.CompositeLit:
				if !isPacket(pass.Info.TypeOf(n)) {
					return true
				}
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Next" {
							report(kv, "Packet.Next")
						}
					}
				}
			}
			return true
		})
	}
}

// isPacketField reports whether sel selects the named field of a
// packet.Packet, through a pointer or not.
func isPacketField(info *types.Info, sel *ast.SelectorExpr, field string) bool {
	s := info.Selections[sel]
	return s != nil && s.Kind() == types.FieldVal && s.Obj().Name() == field && isPacket(s.Recv())
}

// isPacket reports whether t is packet.Packet or a pointer to it.
func isPacket(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Packet" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == packetPkgPath
}
