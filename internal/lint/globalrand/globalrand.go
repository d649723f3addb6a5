// Package globalrand forbids the process-global math/rand source and
// racy sharing of *rand.Rand across goroutines — directly or through
// any chain of calls. Every stochastic draw in the simulator must
// come from a seed-forked eventsim.RNG (the sanctioned entry points:
// eventsim.NewRNG, RNG.Fork, and a per-stop eventsim.Scope's NewRNG
// and Fork on pooled sources), so a run replays bit-identically
// from its seed at any worker count. A single rand.Intn against the
// global source — or one *rand.Rand shared by two goroutines —
// reorders the stream and breaks the census cross-check in
// internal/world.
//
// The transitive check consults the purity fact pass (DESIGN.md §5j):
// a call to any function whose purity signature carries an
// unsanctioned globalrand taint is reported with the full chain down
// to the draw, so wrapping rand.Intn in a helper no longer hides it.
package globalrand

import (
	"go/ast"
	"go/token"
	"go/types"

	"politewifi/internal/lint/analysis"
	"politewifi/internal/lint/purity"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "globalrand",
	Doc: "forbid package-level math/rand draws — including transitively through helpers " +
		"(full call chain reported) — and *rand.Rand captured by goroutine closures; " +
		"draw from seed-forked eventsim.RNG instances instead",
	Run: run,
}

func run(pass *analysis.Pass) error {
	pass.Preorder([]ast.Node{(*ast.SelectorExpr)(nil)}, func(n ast.Node) {
		sel := n.(*ast.SelectorExpr)
		for path, names := range purity.GlobalRandSources {
			if name, ok := pass.PkgLevelRef(sel, path); ok && names[name] {
				pass.Reportf(sel.Pos(),
					"rand.%s draws from the process-global source and is not replayable from a seed; draw from a seed-forked *eventsim.RNG (eventsim.NewRNG, (*RNG).Fork, or a per-stop eventsim.Scope), the simulator's only sanctioned RNG entry points",
					name)
			}
		}
	})

	purity.ReportTaints(pass, purity.KindGlobalRand, func(pos token.Pos, chain []string) {
		pass.Reportf(pos,
			"call transitively draws from the process-global rand source: %s; plumb a seed-forked *eventsim.RNG through instead, or carry a //politevet:allow globalrand(reason) directive at the sanctioned acquisition point",
			purity.ChainString(chain))
	})

	pass.Preorder([]ast.Node{(*ast.GoStmt)(nil)}, func(n ast.Node) {
		lit, ok := n.(*ast.GoStmt).Call.Fun.(*ast.FuncLit)
		if !ok {
			return
		}
		seen := make(map[types.Object]bool)
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			id, ok := m.(*ast.Ident)
			if !ok {
				return true
			}
			obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
			if !ok || seen[obj] || !isRand(obj.Type()) {
				return true
			}
			// Captured means declared outside the closure's extent.
			if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
				return true
			}
			seen[obj] = true
			pass.Reportf(id.Pos(),
				"*rand.Rand %q is captured by a goroutine closure; concurrent draws race and reorder the stream. Fork a private generator for the goroutine before spawning it (eventsim.RNG.Fork)",
				id.Name)
			return true
		})
	})
	return nil
}

// isRand reports whether t is (a pointer to) math/rand.Rand or
// math/rand/v2.Rand.
func isRand(t types.Type) bool {
	return analysis.NamedType(t, "math/rand", "Rand") ||
		analysis.NamedType(t, "math/rand/v2", "Rand")
}
