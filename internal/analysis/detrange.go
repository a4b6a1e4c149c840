package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Detrange flags iteration over unordered collections in
// simulation-path packages: `for range` over a map, and calls to the
// unordered iterators maps.Keys/maps.Values/maps.All outside a sorting
// wrapper. Go randomizes map iteration order per run, so any such loop
// whose body is order-sensitive breaks the fixed-seed ⇒
// byte-identical-output guarantee.
//
// A loop escapes in three ways:
//
//   - Its body is order-insensitive by the conservative allowlist:
//     every statement is a commutative accumulation (integer ++/--,
//     +=/-=/|=/&=/^= with a call-free right-hand side), an idempotent
//     constant latch (x = <literal>), delete(), a write into another
//     map keyed by the loop variable, a pure collection append (the
//     resultorder analyzer then requires the sort), break/continue, or
//     an if over a call-free condition whose branches contain only the
//     above.
//   - The keys flow straight into a sort: slices.Sorted(maps.Keys(m)).
//   - The site carries `//powervet:ordered <reason>`.
var Detrange = &Analyzer{
	Name:      "detrange",
	Doc:       "flags order-sensitive iteration over unordered maps in simulation-path packages",
	Directive: "ordered",
	Run:       runDetrange,
}

func runDetrange(pass *Pass) {
	// Calls of unordered iterators that are immediately sorted or
	// collected are fine; collect the sanctioned call nodes first.
	sanctioned := map[*ast.CallExpr]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(pass.Info, n)
				if funcPkgPath(fn) != "slices" {
					return true
				}
				switch fn.Name() {
				case "Sorted", "SortedFunc", "SortedStableFunc":
					for _, arg := range n.Args {
						if inner, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
							sanctioned[inner] = true
						}
					}
				}
			case *ast.AssignStmt:
				// s := slices.Collect(maps.Keys(m)) hands the ordering
				// obligation to resultorder, which tracks s to its
				// first consumer. A Collect that is returned or passed
				// on directly escapes that tracking and stays flagged.
				if len(n.Lhs) == 1 && len(n.Rhs) == 1 && isUnorderedCollect(pass.Info, n.Rhs[0]) {
					if collect, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
						if inner, ok := ast.Unparen(collect.Args[0]).(*ast.CallExpr); ok {
							sanctioned[inner] = true
						}
					}
				}
			}
			return true
		})
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				t := pass.Info.Types[n.X].Type
				if !isMapType(t) {
					return true
				}
				if orderInsensitiveBody(pass.Info, n) {
					return true
				}
				pass.Reportf(n.For, "order-sensitive range over map %s (map iteration order is randomized; sort the keys or justify with //powervet:ordered)",
					types.TypeString(t, types.RelativeTo(pass.Pkg)))
			case *ast.CallExpr:
				fn := calleeFunc(pass.Info, n)
				if funcPkgPath(fn) != "maps" {
					return true
				}
				switch fn.Name() {
				case "Keys", "Values", "All":
					if sanctioned[n] {
						return true
					}
					pass.Reportf(n.Pos(), "unordered maps.%s iterator (wrap in slices.Sorted or justify with //powervet:ordered)", fn.Name())
				}
			}
			return true
		})
	}
}

// orderInsensitiveBody reports whether every statement of the range
// body is on the commutative/idempotent allowlist, with rng the range
// statement supplying the loop variables.
func orderInsensitiveBody(info *types.Info, rng *ast.RangeStmt) bool {
	keyObj := definedObject(info, rng.Key)
	valObj := definedObject(info, rng.Value)
	// Objects the body itself mutates: an allowed accumulation feeding
	// an allowed keyed write (i++; m2[k] = i) is order-sensitive in
	// composition, so right-hand sides may not read anything the body
	// writes.
	mutated := map[types.Object]bool{}
	for _, st := range rng.Body.List {
		collectMutated(info, st, mutated)
	}
	cx := detrangeCtx{info: info, keyObj: keyObj, valObj: valObj, mutated: mutated}
	for _, st := range rng.Body.List {
		if !cx.orderInsensitiveStmt(st) {
			return false
		}
	}
	return true
}

type detrangeCtx struct {
	info    *types.Info
	keyObj  types.Object
	valObj  types.Object
	mutated map[types.Object]bool
}

// collectMutated records every object st assigns or increments, at any
// nesting depth.
func collectMutated(info *types.Info, st ast.Stmt, out map[types.Object]bool) {
	ast.Inspect(st, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if obj := usedObject(info, lhs); obj != nil {
					out[obj] = true
				}
			}
		case *ast.IncDecStmt:
			if obj := usedObject(info, n.X); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
}

// readsMutated reports whether e reads any object the loop body writes.
func (cx detrangeCtx) readsMutated(e ast.Expr) bool {
	if e == nil || len(cx.mutated) == 0 {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && cx.mutated[cx.info.Uses[id]] {
			found = true
			return false
		}
		return true
	})
	return found
}

func definedObject(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

func (cx detrangeCtx) orderInsensitiveStmt(st ast.Stmt) bool {
	info := cx.info
	switch st := st.(type) {
	case *ast.IncDecStmt:
		// n++ / n-- (or hist[v]++): commutative counting, as long as
		// the operand expression itself cannot observe order through a
		// call.
		return !hasCall(st.X)
	case *ast.AssignStmt:
		return cx.orderInsensitiveAssign(st)
	case *ast.ExprStmt:
		// delete(m, k) is the one call that is order-insensitive by
		// construction.
		call, ok := st.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "delete" && info.Uses[id] == types.Universe.Lookup("delete")
	case *ast.BranchStmt:
		return st.Tok == token.BREAK || st.Tok == token.CONTINUE
	case *ast.IfStmt:
		// Guarded accumulation: condition must be call-free (calls may
		// observe order through side effects) and must not read
		// anything the body mutates, branches recurse.
		if st.Init != nil && !cx.orderInsensitiveStmt(st.Init) {
			return false
		}
		if hasCall(st.Cond) || cx.readsMutated(st.Cond) {
			return false
		}
		for _, s := range st.Body.List {
			if !cx.orderInsensitiveStmt(s) {
				return false
			}
		}
		if st.Else != nil {
			switch e := st.Else.(type) {
			case *ast.BlockStmt:
				for _, s := range e.List {
					if !cx.orderInsensitiveStmt(s) {
						return false
					}
				}
			case *ast.IfStmt:
				return cx.orderInsensitiveStmt(e)
			}
		}
		return true
	case *ast.BlockStmt:
		for _, s := range st.List {
			if !cx.orderInsensitiveStmt(s) {
				return false
			}
		}
		return true
	case *ast.EmptyStmt:
		return true
	}
	return false
}

func (cx detrangeCtx) orderInsensitiveAssign(st *ast.AssignStmt) bool {
	info := cx.info
	switch st.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		// x op= e is commutative for integers; float addition is not
		// associative, so summing float map values in map order is a
		// real determinism bug and stays flagged.
		if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
			return false
		}
		if hasCall(st.Rhs[0]) || cx.readsMutated(st.Rhs[0]) {
			return false
		}
		t := info.Types[st.Lhs[0]].Type
		if t == nil {
			return false
		}
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&(types.IsInteger|types.IsBoolean) != 0
	case token.ASSIGN, token.DEFINE:
		if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
			return false
		}
		lhs, rhs := st.Lhs[0], st.Rhs[0]
		// Idempotent latch: x = <constant>. Every iteration that writes
		// a given location writes the same value, so order is moot.
		if info.Types[rhs].Value != nil && !hasCall(rhs) && !hasCall(lhs) {
			return true
		}
		// Keyed transfer: m2[k] = <expr> with the index being exactly
		// the loop key writes each key's slot once, so iteration order
		// cannot matter. The index must be the bare key — a computed
		// index like m2[k%3] can collide across keys and stays
		// flagged. Works for maps and for slices/arrays (distinct
		// keys, distinct elements). The value may not read anything
		// the body mutates.
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && cx.keyObj != nil {
			if indexedByKey(info, ix, cx.keyObj) && !hasCall(rhs) && !cx.readsMutated(rhs) {
				return true
			}
		}
		// Pure collection: s = append(s, ...) with call-free element
		// expressions. The slice content becomes order-dependent, which
		// is exactly what the resultorder analyzer tracks — it requires
		// a sort before the slice is consumed.
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && info.Uses[id] == types.Universe.Lookup("append") {
				for _, arg := range call.Args[1:] {
					if hasCall(arg) {
						return false
					}
				}
				return true
			}
		}
		return false
	}
	return false
}

// indexedByKey reports whether ix indexes a map, slice or array with
// exactly the loop-key identifier.
func indexedByKey(info *types.Info, ix *ast.IndexExpr, keyObj types.Object) bool {
	id, ok := ast.Unparen(ix.Index).(*ast.Ident)
	if !ok || info.Uses[id] != keyObj {
		return false
	}
	t := info.Types[ix.X].Type
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Map, *types.Slice, *types.Array:
		return true
	case *types.Pointer:
		// *[N]T auto-dereferences on indexing.
		return true
	}
	return false
}

// hasCall reports whether e contains any call or channel receive —
// operations whose side effects could observe iteration order.
func hasCall(e ast.Expr) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// Builtin len/cap/min/max are pure.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				switch id.Name {
				case "len", "cap", "min", "max":
					return true
				}
			}
			found = true
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
