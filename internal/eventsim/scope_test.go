package eventsim

import (
	"math"
	"math/rand"
	"testing"
)

// sameStream fails t unless a and b yield the same n values of every
// draw kind, interleaved the way simulation code mixes them.
func sameStream(t *testing.T, seed int64, a, b *RNG, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("seed %d draw %d: Int63 %d != %d", seed, i, x, y)
		}
		if x, y := a.Float64(), b.Float64(); math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, x, y)
		}
		if x, y := a.Normal(0, 1), b.Normal(0, 1); math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("seed %d draw %d: NormFloat64 %v != %v", seed, i, x, y)
		}
		// Small bounds take Int31n, large ones Int63n.
		m := i%1000 + 1
		if i%7 == 0 {
			m = 1<<40 + i
		}
		if x, y := a.Intn(m), b.Intn(m); x != y {
			t.Fatalf("seed %d draw %d: Intn(%d) %d != %d", seed, i, m, x, y)
		}
	}
}

// TestScopeRNGMatchesNewRNG: a scope-minted generator draws exactly
// NewRNG's stream for the same seed, including on a source that an
// earlier scope drew heavily from and released.
func TestScopeRNGMatchesNewRNG(t *testing.T) {
	const seeds, draws = 1000, 10000
	var sc Scope
	var prev *rand.Rand
	reused := 0
	for k := 0; k < seeds; k++ {
		seed := int64(k)*2654435761 + 1
		if k%3 == 0 {
			seed = -seed // Seed folds negative seeds differently
		}
		g := sc.NewRNG(seed)
		if g.r == prev {
			reused++
		}
		prev = g.r
		sameStream(t, seed, g, NewRNG(seed), draws)
		sc.Release()
	}
	if reused == 0 {
		t.Fatalf("no scope reused a released source in %d scopes; the test checked no reuse", seeds)
	}
	t.Logf("%d of %d scopes drew on a reused source", reused, seeds-1)
}

// TestScopeForkMatchesFork: Scope.Fork(g) consumes the same parent
// draw as g.Fork() and yields the same child stream, bit for bit.
func TestScopeForkMatchesFork(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		var sc Scope
		plain, scoped := NewRNG(seed), sc.NewRNG(seed)
		for f := 0; f < 10; f++ {
			sameStream(t, seed, plain.Fork(), sc.Fork(scoped), 200)
		}
		// The parents moved in lockstep through the forks.
		sameStream(t, seed, plain, scoped, 100)
		sc.Release()
	}
}

// TestScopeReleasePanics: a generator drawn from after its scope was
// released panics rather than share a source with a later scope.
func TestScopeReleasePanics(t *testing.T) {
	var sc Scope
	g := sc.NewRNG(7)
	f := sc.Fork(g)
	sc.Release()
	for _, c := range []struct {
		name string
		draw func()
	}{
		{"minted", func() { g.Float64() }},
		{"forked", func() { f.Int63() }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s generator drew after Release without panicking", c.name)
				}
			}()
			c.draw()
		}()
	}
}
