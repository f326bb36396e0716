package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CallEdge is one static call site inside a declared function. Callee may
// belong to any package; only callees declared in the analyzed package have
// a CallNode of their own.
type CallEdge struct {
	Callee *types.Func
	Pos    token.Pos
}

// CallNode is one function (or method) declared in the analyzed package.
type CallNode struct {
	Func *types.Func
	Decl *ast.FuncDecl
	// Edges lists the statically resolvable calls made by the function,
	// including calls inside func literals it declares (a closure runs on
	// behalf of its creator as far as determinism and allocation discipline
	// are concerned), and calls in defer/go statements.
	Edges []CallEdge
}

// CallGraph is the intra-package callgraph: every declared function with its
// statically resolvable call sites. Dynamic calls through function values
// and interface methods resolve to the declared object when go/types can
// name one (interface method, stored *types.Func) and are absent otherwise;
// analyzers over the graph are therefore "best effort static" and pair with
// waivers for the gaps.
type CallGraph struct {
	Nodes map[*types.Func]*CallNode
	// order preserves file/declaration order for deterministic iteration.
	order []*CallNode
}

// BuildCallGraph constructs the callgraph of the pass's package, skipping
// _test.go files (the analyzers police shipped code, not tests).
func BuildCallGraph(pass *Pass) *CallGraph {
	g := &CallGraph{Nodes: make(map[*types.Func]*CallNode)}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := &CallNode{Func: fn, Decl: fd}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := CalleeFunc(pass.TypesInfo, call); callee != nil {
					node.Edges = append(node.Edges, CallEdge{Callee: callee, Pos: call.Pos()})
				}
				return true
			})
			g.Nodes[fn] = node
			g.order = append(g.order, node)
		}
	}
	return g
}

// Functions returns the declared functions in file/declaration order.
func (g *CallGraph) Functions() []*CallNode { return g.order }

// Reachable expands roots through intra-package call edges and returns, for
// every reached function, the root it was first reached from (roots map to
// themselves). Expansion stops at call sites waived for pass's analyzer:
// the //lint:allow there vouches for the entire chain behind the call.
// Traversal is breadth-first in deterministic declaration order.
func (g *CallGraph) Reachable(pass *Pass, roots []*types.Func) map[*types.Func]*types.Func {
	reached := make(map[*types.Func]*types.Func)
	var queue []*types.Func
	for _, r := range roots {
		if _, ok := g.Nodes[r]; ok && reached[r] == nil {
			reached[r] = r
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		node := g.Nodes[fn]
		if node == nil {
			continue
		}
		for _, e := range node.Edges {
			if reached[e.Callee] != nil || g.Nodes[e.Callee] == nil {
				continue
			}
			if pass.Allowed(e.Pos) {
				continue
			}
			reached[e.Callee] = reached[fn]
			queue = append(queue, e.Callee)
		}
	}
	return reached
}

// CalleeFunc resolves the *types.Func behind a direct call expression: a
// plain function call, a method call, or a call through an imported name.
// It returns nil for func-literal calls, builtins, conversions, and calls
// through function-typed values.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// HasDirective reports whether the function declaration's doc comment
// carries the given machine directive (a comment line that is exactly
// "//"+name, optionally followed by a space-separated remark). Directives
// mirror the compiler's "//go:" convention: no space after the slashes.
func HasDirective(fd *ast.FuncDecl, name string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == "//"+name || strings.HasPrefix(c.Text, "//"+name+" ") {
			return true
		}
	}
	return false
}

// DirectiveRoots returns the declared functions whose doc comment carries
// the directive, in declaration order.
func (g *CallGraph) DirectiveRoots(name string) []*types.Func {
	var out []*types.Func
	for _, n := range g.order {
		if HasDirective(n.Decl, name) {
			out = append(out, n.Func)
		}
	}
	return out
}

// FuncKey returns a stable package-local key for fn: "Name" for package
// functions, "Recv.Name" for methods (pointerness of the receiver is
// erased, so facts survive value/pointer receiver refactors).
func FuncKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}
