// Package wallclock forbids reading the wall clock from simulation
// code — directly or through any chain of calls. Every timestamp in
// the simulator must come from the eventsim.Scheduler virtual clock:
// a single time.Now in a hot path stamps telemetry or ordering
// decisions with host time, and the bit-identical census guarantee
// (DESIGN.md §5c) dies silently.
//
// The direct check flags literal time.Now/Sleep/... references in
// this package. The transitive check consults the purity fact pass
// (DESIGN.md §5j): a call to any function whose purity signature
// carries an unsanctioned wallclock taint is reported with the full
// chain down to the clock read — `world.Run → eventsim.poll →
// time.Now at internal/eventsim/eventsim.go:42` — so a helper
// extracted around a clock read no longer hides it.
package wallclock

import (
	"go/ast"
	"go/token"

	"politewifi/internal/lint/analysis"
	"politewifi/internal/lint/purity"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc: "forbid time.Now/Since/Sleep/After and friends outside cmd/ UX paths, including " +
		"transitively through helpers (full call chain reported); simulation code must use " +
		"the eventsim.Scheduler virtual clock. Server plumbing stays clean without " +
		"exemptions: net/http.Server timeout fields are pure time.Duration values and " +
		"context.AfterFunc belongs to context, so neither is flagged, and cmd/politewifid's " +
		"graceful-shutdown deadlines sit under the cmd/ allowlist; a genuine clock read " +
		"elsewhere needs //politevet:allow wallclock(reason)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if purity.WallclockExempt(pass.Pkg.Path()) {
		return nil
	}
	pass.Preorder([]ast.Node{(*ast.SelectorExpr)(nil)}, func(n ast.Node) {
		sel := n.(*ast.SelectorExpr)
		name, ok := pass.PkgLevelRef(sel, "time")
		if ok && purity.WallclockSources[name] {
			pass.Reportf(sel.Pos(),
				"time.%s reads the wall clock; simulation code must use the eventsim.Scheduler virtual clock (Now/After/Every), or carry a //politevet:allow wallclock(reason) directive",
				name)
		}
	})
	purity.ReportTaints(pass, purity.KindWallclock, func(pos token.Pos, chain []string) {
		pass.Reportf(pos,
			"call transitively reaches the wall clock: %s; plumb the eventsim.Scheduler virtual clock through instead, or carry a //politevet:allow wallclock(reason) directive at the sanctioned acquisition point",
			purity.ChainString(chain))
	})
	return nil
}
