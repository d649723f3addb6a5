// Package bufreuse flags pooled frame buffers that escape the scope
// their pooling is valid in. The zero-alloc event core recycles
// receive buffers aggressively: radio.Reception.Data aliases the
// stop's frame arena (reset — not freed — at every stop boundary)
// and arena.Arena.Alloc hands out chunks that the next Reset
// reclaims. Retaining such bytes inside one stop's event cascade is
// fine; letting them cross a goroutine boundary or land in a
// package-level variable is not, because the consumer reads them
// after the arena has been rewound and the backing memory rewritten
// by a later stop — the silent-corruption class. core.Attacker's
// pooled decoder follows the same rule: a sniffed frame is valid only
// inside the OnFrame callback that receives it.
//
// The analyzer tracks pooled values — expressions of a named
// Reception type, selectors of their Data field, results of an
// Arena.Alloc call, and locals/composites built from any of those —
// and reports when one is sent on a channel or stored into a
// package-level variable. Stores into struct fields of locals (the
// pooled-job idiom: a deferred event re-reads the buffer later in
// the same stop) are deliberately out of scope.
//
// The interprocedural upgrade adds the escaping-argument check,
// backed by the purity fact pass (DESIGN.md §5j): passing a pooled
// value into a parameter that the callee — possibly in another
// package, possibly through further calls — sends on a channel or
// stores at package level is the same escape one hop removed, and is
// reported at the call site with the chain down to the sink.
package bufreuse

import (
	"go/ast"
	"go/types"

	"politewifi/internal/lint/analysis"
	"politewifi/internal/lint/purity"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "bufreuse",
	Doc: "flag pooled reception/arena buffers escaping their stop: sent on a channel, " +
		"stored in a package-level variable, or passed to a function whose purity facts " +
		"say the parameter escapes (chain reported) — all without an explicit copy",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c := &checker{pass: pass, local: make(map[types.Object]bool)}
			c.check(fd.Body)
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	// local marks function-local objects assigned a pooled value
	// earlier in source order — enough flow sensitivity to catch
	// `ev := frameEvent{rx: rx}; ch <- ev` without SSA.
	local map[types.Object]bool
}

func (c *checker) check(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			c.assign(n)
		case *ast.ValueSpec:
			c.valueSpec(n)
		case *ast.SendStmt:
			if c.pooled(n.Value) {
				c.pass.Reportf(n.Pos(),
					"pooled buffer sent on a channel: reception/arena bytes are recycled at stop reset, so the consumer may read rewritten memory; copy first (append([]byte(nil), b...)), or carry a //politevet:allow bufreuse(reason) directive")
			}
		case *ast.CallExpr:
			c.escapingArgs(n)
		}
		return true
	})
}

// escapingArgs reports pooled values passed into parameters the
// callee's purity facts mark as escaping.
func (c *checker) escapingArgs(call *ast.CallExpr) {
	escapes := purity.EscapeFactOf(c.pass, call)
	if len(escapes) == 0 {
		return
	}
	for _, esc := range escapes {
		if esc.Sanctioned || esc.Param >= len(call.Args) {
			continue
		}
		if !c.pooled(call.Args[esc.Param]) {
			continue
		}
		c.pass.Reportf(call.Args[esc.Param].Pos(),
			"pooled buffer passed to a parameter that escapes its stop: %s; reception/arena bytes are recycled at stop reset, so the eventual reader may see rewritten memory; copy first (append([]byte(nil), b...)), or carry a //politevet:allow bufreuse(reason) directive",
			purity.ChainString(esc.Chain))
	}
}

// assign handles both sinks (package-level LHS fed a pooled RHS) and
// propagation (local ident bound to a pooled RHS).
func (c *checker) assign(as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		var rhs ast.Expr
		if len(as.Lhs) == len(as.Rhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			// Tuple assignment from a call: call results are never
			// considered pooled (Alloc is handled as a single value).
			continue
		}
		if rhs == nil || !c.pooled(rhs) {
			continue
		}
		if c.pkgLevelBase(lhs) {
			c.pass.Reportf(as.Pos(),
				"pooled buffer stored in a package-level variable: reception/arena bytes are recycled at stop reset and a later stop will rewrite them; copy first (append([]byte(nil), b...)), or carry a //politevet:allow bufreuse(reason) directive")
			continue
		}
		if id, ok := lhs.(*ast.Ident); ok {
			if obj := c.objectOf(id); obj != nil {
				c.local[obj] = true
			}
		}
	}
}

// valueSpec propagates pooledness through `var ev = event{rx: rx}`.
func (c *checker) valueSpec(vs *ast.ValueSpec) {
	if len(vs.Names) != len(vs.Values) {
		return
	}
	for i, name := range vs.Names {
		if c.pooled(vs.Values[i]) {
			if obj := c.objectOf(name); obj != nil {
				c.local[obj] = true
			}
		}
	}
}

// pooled reports whether e yields (or aliases) a recycled buffer.
func (c *checker) pooled(e ast.Expr) bool {
	e = ast.Unparen(e)
	// Any value of a named Reception type carries its pooled Data
	// alias wherever it goes, by value or by pointer.
	if t := c.pass.TypeOf(e); t != nil && namedCalled(t, "Reception") {
		return true
	}
	switch e := e.(type) {
	case *ast.Ident:
		if obj := c.objectOf(e); obj != nil {
			return c.local[obj]
		}
	case *ast.SelectorExpr:
		// rx.Data on a Reception: the arena-backed byte alias itself.
		if e.Sel.Name == "Data" {
			if t := c.pass.TypeOf(e.X); t != nil && namedCalled(t, "Reception") {
				return true
			}
		}
		return c.pooled(e.X)
	case *ast.SliceExpr:
		// Reslicing keeps the backing array.
		return c.pooled(e.X)
	case *ast.UnaryExpr:
		return c.pooled(e.X)
	case *ast.IndexExpr:
		return c.pooled(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if c.pooled(el) {
				return true
			}
		}
	case *ast.CallExpr:
		return c.pooledCall(e)
	}
	return false
}

// pooledCall: Arena.Alloc results are pooled; append propagates
// pooledness from its base and from whole-slice elements, but a
// spread copy (append(dst, b...)) of byte elements severs the alias
// — that is the sanctioned copy idiom. All other call results are
// treated as fresh.
func (c *checker) pooledCall(call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
		if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && len(call.Args) > 0 {
			if c.pooled(call.Args[0]) {
				return true
			}
			if call.Ellipsis.IsValid() {
				return false // element-wise copy of the spread bytes
			}
			for _, a := range call.Args[1:] {
				if c.pooled(a) {
					return true
				}
			}
			return false
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Alloc" {
		if n := c.pass.ReceiverNamed(call); n != nil && n.Obj().Name() == "Arena" {
			return true
		}
	}
	return false
}

// pkgLevelBase reports whether the assignment target's base resolves
// to a package-level variable (directly, through a field selector,
// through an index, or as a qualified pkg.Var reference).
func (c *checker) pkgLevelBase(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := c.pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
					return c.pkgLevelObj(c.pass.TypesInfo.Uses[x.Sel])
				}
			}
			e = x.X
		case *ast.Ident:
			obj := c.objectOf(x)
			return c.pkgLevelObj(obj)
		default:
			return false
		}
	}
}

func (c *checker) pkgLevelObj(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Parent() == c.pass.Pkg.Scope()
}

func (c *checker) objectOf(id *ast.Ident) types.Object {
	if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return c.pass.TypesInfo.Defs[id]
}

// namedCalled reports whether t (after stripping one pointer) is a
// named type with the given name, whatever package it lives in —
// fixtures mirror the radio shapes without importing them.
func namedCalled(t types.Type, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj() != nil && n.Obj().Name() == name
}
