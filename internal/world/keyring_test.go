package world

import (
	"testing"

	"politewifi/internal/eventsim"
)

// TestPBKDF2BudgetPerStop pins the per-stop keyring's cost as a count
// that cannot drift with the host: every stop of a small fixed city
// runs at most one PBKDF2 derivation per RSN household that has a
// client to handshake with, where deriving at each end of each
// handshake would take at least two. The drive must derive at least
// once, or the budget would hold vacuously.
func TestPBKDF2BudgetPerStop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.05
	// The stop RNGs are forked exactly as Run forks them.
	root := eventsim.NewRNG(cfg.Seed)
	city := BuildCity(root.Fork(), cfg.Scale)
	stops := city.Stops(cfg.HouseholdsPerStop)
	seeds := make([]int64, len(stops))
	for i := range stops {
		seeds[i] = root.Int63()
	}
	total := 0
	for i, stop := range stops {
		budget := 0
		for _, h := range stop.Households {
			if h.Passphrase != "" && len(h.Clients) > 0 {
				budget++
			}
		}
		sh := runStop(seeds[i], i, stop, cfg)
		if sh.derivations > budget {
			t.Errorf("stop %d: %d PBKDF2 derivations, budget %d (RSN households with clients)", i, sh.derivations, budget)
		}
		total += sh.derivations
	}
	if total == 0 {
		t.Fatal("the drive derived no PMK: the city has no RSN handshake to measure")
	}
	t.Logf("%d stops, %d PBKDF2 derivations", len(stops), total)
}
