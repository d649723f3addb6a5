package oui

import (
	"fmt"
	"testing"

	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
)

func TestLookupWellKnown(t *testing.T) {
	db := NewDB()
	if o := db.Register("Apple"); o != (dot11.OUI{0xf0, 0x18, 0x98}) {
		t.Fatalf("Apple = %v", o)
	}
	if v, ok := db.byOUI[dot11.OUI{0x02, 0x00, 0x00}]; ok {
		t.Fatalf("unknown OUI resolved to %q", v)
	}
}

func TestRegisterSynthetic(t *testing.T) {
	db := NewDB()
	o1 := db.Register("FrobnicateWireless")
	o2 := db.Register("FrobnicateWireless")
	if o1 != o2 {
		t.Fatal("re-registration changed the OUI")
	}
	if o1[0]&0x01 != 0 {
		t.Fatal("synthetic OUI has group bit set")
	}
	v, ok := db.byOUI[o1.WithSuffix(42).OUI()]
	if !ok || v != "FrobnicateWireless" {
		t.Fatalf("Lookup synthetic = %q, %v", v, ok)
	}
	// Determinism across DB instances.
	if NewDB().Register("FrobnicateWireless") != o1 {
		t.Fatal("synthetic OUI not deterministic")
	}
}

func TestRegisterCollisionBump(t *testing.T) {
	db := NewDB()
	// Register many synthetic vendors; all prefixes must be unique.
	seen := map[dot11.OUI]bool{}
	for i := 0; i < 500; i++ {
		o := db.Register(fmt.Sprintf("Vendor-%d", i))
		if seen[o] {
			t.Fatalf("duplicate OUI %v", o)
		}
		seen[o] = true
	}
}

func TestMintMAC(t *testing.T) {
	db := NewDB()
	rng := eventsim.NewRNG(1)
	seen := map[dot11.MAC]bool{}
	for i := 0; i < 1000; i++ {
		m := db.MintMAC("Apple", rng)
		if v := db.byOUI[m.OUI()]; v != "Apple" {
			t.Fatalf("minted MAC resolves to %q", v)
		}
		if !m.IsUnicast() {
			t.Fatal("minted MAC not unicast")
		}
		if seen[m] {
			t.Fatal("minted MAC collision within 1000 draws")
		}
		seen[m] = true
	}
}

func TestClientCensusExact(t *testing.T) {
	c := ClientCensus()
	if got := sum(c); got != TotalClients {
		t.Fatalf("client census sum = %d, want %d", got, TotalClients)
	}
	if len(c) != ClientVendors {
		t.Fatalf("client vendor count = %d, want %d", len(c), ClientVendors)
	}
	// Head entries match Table 2 exactly.
	if c[0].Vendor != "Apple" || c[0].Count != 143 {
		t.Fatalf("head = %+v", c[0])
	}
	if c[19].Vendor != "Microsoft" || c[19].Count != 13 {
		t.Fatalf("entry 20 = %+v", c[19])
	}
	for _, e := range c {
		if e.Count < 1 {
			t.Fatalf("vendor %s has %d devices", e.Vendor, e.Count)
		}
	}
}

func TestAPCensusExact(t *testing.T) {
	c := APCensus()
	if got := sum(c); got != TotalAPs {
		t.Fatalf("AP census sum = %d, want %d", got, TotalAPs)
	}
	if len(c) != APVendors {
		t.Fatalf("AP vendor count = %d, want %d", len(c), APVendors)
	}
	if c[0].Vendor != "Hitron" || c[0].Count != 723 {
		t.Fatalf("head = %+v", c[0])
	}
	if c[19].Vendor != "Apple" || c[19].Count != 19 {
		t.Fatalf("entry 20 = %+v", c[19])
	}
}

func TestTotalsMatchPaper(t *testing.T) {
	if TotalDevices != 5328 {
		t.Fatalf("total devices = %d, want 5328", TotalDevices)
	}
	// 186 vendors overall; some overlap between client and AP lists.
	if TotalVendors != 186 {
		t.Fatalf("total vendors = %d", TotalVendors)
	}
}

func TestCensusDeterminism(t *testing.T) {
	a, b := ClientCensus(), ClientCensus()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("census not deterministic")
		}
	}
}

func TestVendorsList(t *testing.T) {
	db := NewDB()
	n := len(db.byVendor)
	db.Register("Newco")
	if len(db.byVendor) != n+1 {
		t.Fatal("Vendors list did not grow")
	}
}

// sum totals the device counts of a census.
func sum(census []CensusEntry) int {
	total := 0
	for _, e := range census {
		total += e.Count
	}
	return total
}
