package eventsim

import (
	"math/rand"
	"sync"
)

// sources pools math/rand generators across scopes. A fresh source is
// ~4.9 KB of lagged-Fibonacci state; a wardrive stop mints one for its
// medium and each station, so pooling them takes the per-stop source
// allocation off the garbage collector.
var sources = sync.Pool{New: func() any { return rand.New(rand.NewSource(1)) }}

// Scope lends pooled random sources for the lifetime of one unit of
// work — a wardrive stop. Every generator it mints draws exactly the
// stream NewRNG would give the same seed: (*rand.Rand).Seed rewrites
// the whole source state, as rand.NewSource does, so a reused source
// carries nothing over from its last owner.
//
// Release returns every source and detaches it from the generator that
// held it, so a draw after the unit of work ends panics instead of
// sharing a source with the next one. The zero Scope is ready to use;
// a Scope is not safe for concurrent use.
type Scope struct {
	lent []*RNG
}

// NewRNG returns a generator for the given seed, drawing the same
// stream as the package-level NewRNG(seed), on a pooled source.
func (sc *Scope) NewRNG(seed int64) *RNG {
	r := sources.Get().(*rand.Rand)
	r.Seed(seed)
	g := &RNG{r: r}
	sc.lent = append(sc.lent, g)
	return g
}

// Fork is g.Fork() on a pooled source: it consumes the same draw from
// g and yields the same stream.
func (sc *Scope) Fork(g *RNG) *RNG { return sc.NewRNG(g.r.Int63()) }

// Release returns every lent source to the pool. Each generator the
// scope minted is left without a source, so drawing from it panics.
func (sc *Scope) Release() {
	for i, g := range sc.lent {
		sources.Put(g.r)
		g.r = nil
		sc.lent[i] = nil
	}
	sc.lent = sc.lent[:0]
}
