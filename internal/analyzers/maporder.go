package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tvnep/internal/analysis"
)

// Maporder flags `range` loops over maps whose body has order-dependent
// effects. Go randomizes map iteration order per run, so any such loop is a
// direct threat to the solver's bit-identical replay guarantee: the same
// instance can produce differently ordered cut pools, differently hashed
// canonical rows, or differently ordered diagnostics from one run to the
// next.
//
// Reported effects inside a map-range body:
//
//   - append to a slice declared outside the loop — unless the enclosing
//     function visibly sorts that slice after the loop (the canonical
//     collect-keys-then-sort idiom is deterministic end to end);
//   - a channel send (delivery order becomes map order);
//   - writes into hashes and writers (methods named Write/WriteString/
//     WriteByte/WriteRune/Sum, and fmt.Fprint*/fmt.Print*) — the digest or
//     output depends on iteration order;
//   - Reportf calls (diagnostics emitted in map order);
//   - compound assignment (+=, -=, *=, /=) into a float or string variable
//     declared outside the loop — float rounding and string concatenation
//     are order-sensitive, unlike exact integer accumulation.
//
// The analyzer is scoped to the solver, eval and admission packages (where
// replay determinism is contractual); deliberate exceptions are annotated
// //lint:allow maporder with a reason.
var Maporder = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flags map-range loops whose body has iteration-order-dependent effects in solver/eval/admit packages",
	Run:  runMaporder,
}

// maporderScope lists the package-path suffixes the analyzer polices. The
// bare fixture names keep the analyzer testable outside the module.
var maporderScope = []string{
	"internal/core", "internal/depgraph", "internal/mip", "internal/lp",
	"internal/linalg/sparselu", "internal/eval",
	"internal/admit", "internal/solution", "internal/certify",
	"internal/analysis", "internal/analyzers",
	"maporder",
}

func inMaporderScope(path string) bool {
	for _, s := range maporderScope {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

var orderSensitiveWriters = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Sum": true, "Reportf": true,
}

func runMaporder(pass *analysis.Pass) error {
	if pass.Pkg == nil || !inMaporderScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok || !isMapRange(pass, rs) {
					return true
				}
				checkMapRangeBody(pass, fd, rs)
				return true
			})
		}
	}
	return nil
}

func isMapRange(pass *analysis.Pass, rs *ast.RangeStmt) bool {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// checkMapRangeBody reports the order-dependent effects inside one
// map-range loop.
func checkMapRangeBody(pass *analysis.Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Arrow, "channel send inside map range: delivery order follows randomized map iteration order")
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, fd, rs, n)
		case *ast.CallExpr:
			checkMapRangeCall(pass, rs, n)
		}
		return true
	})
}

func checkMapRangeAssign(pass *analysis.Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, as *ast.AssignStmt) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		for _, lhs := range as.Lhs {
			obj := outerIdentObj(pass, rs, lhs)
			if obj == nil {
				continue
			}
			if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&(types.IsFloat|types.IsString) != 0 {
				pass.Reportf(as.TokPos, "%s %s inside map range accumulates in randomized iteration order; accumulate over sorted keys", obj.Name(), as.Tok)
			}
		}
	case token.ASSIGN, token.DEFINE:
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pass, call) || i >= len(as.Lhs) {
				continue
			}
			obj := outerIdentObj(pass, rs, as.Lhs[i])
			if obj == nil {
				continue
			}
			if sortedAfter(pass, fd, rs, obj) {
				continue
			}
			pass.Reportf(call.Pos(), "append to %s inside map range leaks randomized iteration order; sort %s after the loop or range over sorted keys", obj.Name(), obj.Name())
		}
	}
}

func checkMapRangeCall(pass *analysis.Pass, rs *ast.RangeStmt, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && (strings.HasPrefix(fn.Name(), "Fprint") || strings.HasPrefix(fn.Name(), "Print")) {
		pass.Reportf(call.Pos(), "fmt.%s inside map range emits output in randomized iteration order", fn.Name())
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil || !orderSensitiveWriters[fn.Name()] {
		return
	}
	// Writes into a receiver created inside the loop body are loop-local
	// (e.g. hashing one key); only writes into outer state leak order.
	if obj := outerIdentObj(pass, rs, receiverRoot(sel.X)); obj == nil {
		return
	}
	pass.Reportf(call.Pos(), "%s inside map range feeds a hash/writer in randomized iteration order", fn.Name())
}

// receiverRoot peels selectors/stars/parens down to the root identifier of
// a method receiver expression.
func receiverRoot(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		default:
			return e
		}
	}
}

// outerIdentObj resolves e to a variable object declared outside the range
// statement; nil when e is not a plain identifier or is loop-local.
func outerIdentObj(pass *analysis.Pass, rs *ast.RangeStmt, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	if obj == nil {
		return nil
	}
	if obj.Pos() >= rs.Pos() && obj.Pos() < rs.End() {
		return nil // declared by the loop itself (key/value var or body-local)
	}
	return obj
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedAfter reports whether fd visibly sorts obj after the map-range loop
// — a call into package sort or slices, past rs, that mentions obj. This
// sanctions the canonical deterministic idiom: collect keys in map order,
// sort, then range over the sorted slice.
func sortedAfter(pass *analysis.Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			mentions := false
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					mentions = true
					return false
				}
				return true
			})
			if mentions {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
