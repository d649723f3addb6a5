// Package simsleep flags busy-wait loops that poll simulation state
// without yielding. In a discrete-event simulator, time only advances
// when the event queue runs; a loop that re-checks a predicate
// without scheduling anything (`for s.Busy() {}`) spins forever at
// the same instant — the hot-spin class the hostile-channel work
// fixed with sim-time backoff waits and capped busy-parks (see
// core.Prober's busy retry).
//
// Detection lives in the purity fact pass (purity.FindSpins), which
// this analyzer wraps for reporting. Since the interprocedural
// upgrade, a call in the loop body only counts as a yield when the
// callee's purity signature says it can yield — so a spin hidden
// behind a provably pure helper (`for s.Busy() { stats.bump() }`) is
// now caught, while a loop that drives the queue through a helper is
// not flagged.
package simsleep

import (
	"politewifi/internal/lint/analysis"
	"politewifi/internal/lint/purity"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "simsleep",
	Doc: "flag busy-wait loops that poll sim state via calls but never yield (no channel op, " +
		"select, or call that can advance simulated time — judged against purity facts); " +
		"park on a scheduler event or a sim-time wait",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, spin := range purity.FindSpins(pass) {
		pass.Reportf(spin.Pos,
			"for-loop polls %s without yielding: nothing in the body schedules, waits, or calls anything that can advance simulated time, so the loop spins at one simulated instant; park on a scheduler event or a sim-time wait, or carry a //politevet:allow simsleep(reason) directive",
			spin.Polled)
	}
	return nil
}
