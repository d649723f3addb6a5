package phy

import (
	"math"
	"testing"

	"politewifi/internal/eventsim"
)

func TestSIFS(t *testing.T) {
	// The paper: "10 µs and 16 µs for the 2.4 GHz and 5 GHz bands".
	if Band2GHz.SIFS() != 10*eventsim.Microsecond {
		t.Fatalf("2.4 GHz SIFS = %v, want 10µs", Band2GHz.SIFS())
	}
	if Band5GHz.SIFS() != 16*eventsim.Microsecond {
		t.Fatalf("5 GHz SIFS = %v, want 16µs", Band5GHz.SIFS())
	}
}

func TestDIFS(t *testing.T) {
	if got := Band5GHz.DIFS(); got != 34*eventsim.Microsecond {
		t.Fatalf("5 GHz DIFS = %v, want 34µs", got)
	}
	if got := Band2GHz.DIFS(); got != 50*eventsim.Microsecond {
		t.Fatalf("2.4 GHz DIFS = %v, want 50µs", got)
	}
}

func TestChannelFreq(t *testing.T) {
	cases := []struct {
		band Band
		ch   int
		want float64
	}{
		{Band2GHz, 1, 2412},
		{Band2GHz, 6, 2437},
		{Band2GHz, 11, 2462},
		{Band2GHz, 14, 2484},
		{Band5GHz, 36, 5180},
		{Band5GHz, 149, 5745},
	}
	for _, c := range cases {
		if got := ChannelFreqMHz(c.band, c.ch); got != c.want {
			t.Errorf("ChannelFreqMHz(%v,%d) = %v, want %v", c.band, c.ch, got, c.want)
		}
	}
}

func TestAirtimeOFDM(t *testing.T) {
	// 14-byte ACK at 24 Mbps: 16+8*14+6 = 134 bits, ceil(134/96)=2
	// symbols → 20 + 8 = 28 µs.
	if got := Airtime(Rate24, 14); got != 28*eventsim.Microsecond {
		t.Fatalf("ACK airtime at 24 Mbps = %v, want 28µs", got)
	}
	// Same ACK at 6 Mbps: ceil(134/24)=6 symbols → 20+24 = 44 µs.
	if got := Airtime(Rate6, 14); got != 44*eventsim.Microsecond {
		t.Fatalf("ACK airtime at 6 Mbps = %v, want 44µs", got)
	}
	// 1500-byte frame at 54 Mbps: 16+12000+6=12022 bits,
	// ceil(12022/216)=56 symbols → 20+224 = 244 µs.
	if got := Airtime(Rate54, 1500); got != 244*eventsim.Microsecond {
		t.Fatalf("1500B at 54 Mbps = %v, want 244µs", got)
	}
}

func TestAirtimeDSSS(t *testing.T) {
	// 14-byte ACK at 1 Mbps: 192 + 112 = 304 µs.
	if got := Airtime(Rate1, 14); got != 304*eventsim.Microsecond {
		t.Fatalf("DSSS ACK airtime = %v, want 304µs", got)
	}
	if got := Airtime(Rate11, 11); got != (192+8)*eventsim.Microsecond {
		t.Fatalf("11 Mbps airtime = %v", got)
	}
}

func TestAirtimeMonotonicInLength(t *testing.T) {
	for _, r := range OFDMRates {
		prev := eventsim.Time(0)
		for n := 0; n <= 2000; n += 100 {
			a := Airtime(r, n)
			if a < prev {
				t.Fatalf("airtime not monotonic for %v at %d bytes", r, n)
			}
			prev = a
		}
	}
}

func TestControlRate(t *testing.T) {
	cases := []struct {
		in, want Rate
	}{
		{Rate54, Rate24},
		{Rate48, Rate24},
		{Rate36, Rate24},
		{Rate24, Rate24},
		{Rate18, Rate12},
		{Rate12, Rate12},
		{Rate9, Rate6},
		{Rate6, Rate6},
		{Rate11, Rate2},
		{Rate1, Rate1},
	}
	for _, c := range cases {
		if got := ControlRate(c.in); got.Mbps != c.want.Mbps {
			t.Errorf("ControlRate(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNAV(t *testing.T) {
	// NAV for a 24 Mbps data frame on 2.4 GHz: SIFS(10) + ACK(28) = 38.
	if got := NAV(Band2GHz, Rate24); got != 38 {
		t.Fatalf("NAV = %d, want 38", got)
	}
	// RTS NAV covers CTS + data + ACK + 3 SIFS.
	nav := RTSNAV(Band2GHz, Rate24, 1500)
	want := uint16((3*10*eventsim.Microsecond + 28*eventsim.Microsecond + Airtime(Rate24, 1500) + 28*eventsim.Microsecond) / eventsim.Microsecond) //politevet:allow durwrap(expected-value fixture; every term is a small positive airtime, sum ≪ 65535µs)
	if nav != want {
		t.Fatalf("RTSNAV = %d, want %d", nav, want)
	}
}

func TestSubcarrierLayout(t *testing.T) {
	if SubcarrierIndex(0) != -26 {
		t.Fatalf("slot 0 index = %d, want -26", SubcarrierIndex(0))
	}
	if SubcarrierIndex(25) != -1 {
		t.Fatalf("slot 25 index = %d, want -1", SubcarrierIndex(25))
	}
	if SubcarrierIndex(26) != 1 {
		t.Fatalf("slot 26 index = %d, want +1 (DC skipped)", SubcarrierIndex(26))
	}
	if SubcarrierIndex(51) != 26 {
		t.Fatalf("slot 51 index = %d, want +26", SubcarrierIndex(51))
	}
	// All 52 indices distinct, none zero.
	seen := map[int]bool{}
	pilots := 0
	for s := 0; s < NumSubcarriers; s++ {
		idx := SubcarrierIndex(s)
		if idx == 0 {
			t.Fatal("DC subcarrier reported as occupied")
		}
		if seen[idx] {
			t.Fatalf("duplicate subcarrier index %d", idx)
		}
		seen[idx] = true
		if IsPilot(s) {
			pilots++
		}
	}
	if pilots != 4 {
		t.Fatalf("pilot count = %d, want 4", pilots)
	}
	if got := SubcarrierOffsetHz(26); got != 312500 {
		t.Fatalf("offset of +1 = %v", got)
	}
}

func TestSubcarrierPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range slot did not panic")
		}
	}()
	SubcarrierIndex(52)
}

func TestBERMonotonicInSNR(t *testing.T) {
	for _, r := range OFDMRates {
		prev := 1.0
		for snr := -5.0; snr <= 40; snr += 1 {
			b := BER(r, snr)
			if b > prev+1e-12 {
				t.Fatalf("BER not nonincreasing for %v at %v dB", r, snr)
			}
			if b < 0 || b > 0.5+1e-9 {
				t.Fatalf("BER out of range: %v", b)
			}
			prev = b
		}
	}
}

func TestFERBounds(t *testing.T) {
	for _, r := range OFDMRates {
		for snr := -10.0; snr <= 50; snr += 5 {
			f := FER(r, snr, 1500)
			if f < 0 || f > 1 {
				t.Fatalf("FER out of [0,1]: %v", f)
			}
		}
		if FER(r, 50, 1500) > 1e-6 {
			t.Fatalf("FER at 50 dB should be ~0 for %v", r)
		}
		if FER(r, -10, 1500) < 0.99 {
			t.Fatalf("FER at -10 dB should be ~1 for %v", r)
		}
	}
}

func TestFERIncreasesWithLength(t *testing.T) {
	snr := MinSNR(Rate24)
	if FER(Rate24, snr, 100) > FER(Rate24, snr, 1500) {
		t.Fatal("FER should grow with frame length")
	}
}

func TestMinSNROrdering(t *testing.T) {
	// Faster rates need more SNR.
	prev := -math.MaxFloat64
	for _, r := range OFDMRates {
		m := MinSNR(r)
		if m < prev {
			t.Fatalf("MinSNR(%v) = %v < previous %v", r, m, prev)
		}
		prev = m
	}
}

func TestPickRate(t *testing.T) {
	if got := PickRate(50); got.Mbps != 54 {
		t.Fatalf("PickRate(50 dB) = %v, want 54", got)
	}
	if got := PickRate(-5); got.Mbps != 6 {
		t.Fatalf("PickRate(-5 dB) = %v, want 6", got)
	}
	// Monotone: more SNR never picks a slower rate.
	prev := 0.0
	for snr := -5.0; snr <= 45; snr++ {
		r := PickRate(snr)
		if r.Mbps < prev {
			t.Fatalf("PickRate not monotone at %v dB", snr)
		}
		prev = r.Mbps
	}
}

// TestMinSNRTableBitIdentical pins PickRate's threshold table to the
// bisection it replaces, bit for bit: any drift would move a rate
// choice and with it every RNG draw, census and stream downstream.
func TestMinSNRTableBitIdentical(t *testing.T) {
	if len(ofdmMinSNR) != len(OFDMRates) {
		t.Fatalf("table has %d entries for %d rates", len(ofdmMinSNR), len(OFDMRates))
	}
	for i, r := range OFDMRates {
		if got, want := math.Float64bits(ofdmMinSNR[i]), math.Float64bits(MinSNR(r)); got != want {
			t.Fatalf("table[%d] (%v) = %#x, MinSNR = %#x", i, r, got, want)
		}
	}
}

// TestPickRateMatchesBisection checks the table-driven PickRate
// against the loop it replaced, across the whole SNR range and at
// every threshold edge and its float64 neighbours.
func TestPickRateMatchesBisection(t *testing.T) {
	reference := func(snrDB float64) Rate {
		best := Rate6
		for _, r := range OFDMRates {
			if snrDB >= MinSNR(r)+3 {
				best = r
			}
		}
		return best
	}
	check := func(snr float64) {
		t.Helper()
		if got, want := PickRate(snr), reference(snr); got != want {
			t.Fatalf("PickRate(%v) = %v, reference = %v", snr, got, want)
		}
	}
	for i := -2000; i <= 6000; i++ {
		check(float64(i) / 100)
	}
	for _, r := range OFDMRates {
		edge := MinSNR(r) + 3
		check(math.Nextafter(edge, math.Inf(-1)))
		check(edge)
		check(math.Nextafter(edge, math.Inf(1)))
	}
}

// refBER evaluates BER's expression in full on every call, with the
// coding gain computed inline: the reference that the coding-gain
// table and the zero thresholds must match bit for bit.
func refBER(r Rate, snrDB float64) float64 {
	snr := math.Pow(10, snrDB/10)
	var gain float64
	switch r.Mbps {
	case 6, 12, 24:
		gain = 4.0
	case 9, 18, 36, 48:
		gain = 3.0
	case 54:
		gain = 2.5
	default:
		gain = 0
	}
	snr *= math.Pow(10, gain/10)
	switch r.Mod {
	case ModDSSS, ModBPSK:
		return qfunc(math.Sqrt(2 * snr))
	case ModQPSK:
		return qfunc(math.Sqrt(snr))
	case Mod16QAM:
		return 0.75 * qfunc(math.Sqrt(snr/5))
	case Mod64QAM:
		return 7.0 / 12 * qfunc(math.Sqrt(snr/21))
	}
	return 0.5
}

// refFERFromBER is the rest of the reference FER, given refBER's
// result for the same rate and SNR.
func refFERFromBER(ber float64, length int) float64 {
	if ber <= 0 {
		return 0
	}
	if ber >= 0.5 {
		return 1
	}
	fer := 1 - math.Pow(1-ber, float64(8*length))
	if fer < 0 {
		return 0
	}
	if fer > 1 {
		return 1
	}
	return fer
}

// TestBERFERMatchReference checks BER and FER against the reference
// copies above, comparing float64 bits: every rate the package
// defines, plus one made-up rate for each (modulation, code rate)
// pair no defined rate has, at -40…150 dB in 0.001 dB steps, each
// zero threshold and its float64 neighbours, ±Inf and NaN. A result
// that differed in any bit would change a Coin draw and with it every
// drive downstream.
func TestBERFERMatchReference(t *testing.T) {
	rates := append(append([]Rate{Rate1, Rate2, Rate5x5, Rate11}, OFDMRates...), htRates...)
	var covered [Mod64QAM + 1][len(codingGainDB)]bool
	for _, r := range rates {
		covered[r.Mod][codeClass(r)] = true
	}
	classMbps := [len(codingGainDB)]float64{1, 6, 9, 54}
	for mod := range covered {
		for class, ok := range covered[mod] {
			if !ok {
				rates = append(rates, Rate{Mbps: classMbps[class], Mod: Modulation(mod)})
			}
		}
	}
	lengths := []int{14, 24, 1000, 1500}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	failures := 0
	check := func(r Rate, snr float64) {
		want := refBER(r, snr)
		if got := BER(r, snr); !same(got, want) {
			t.Errorf("BER(%v, %v) = %v (%#x), reference %v (%#x)", r, snr, got, math.Float64bits(got), want, math.Float64bits(want))
			failures++
		}
		for _, n := range lengths {
			if got, want := FER(r, snr, n), refFERFromBER(want, n); !same(got, want) {
				t.Errorf("FER(%v, %v, %d) = %v (%#x), reference %v (%#x)", r, snr, n, got, math.Float64bits(got), want, math.Float64bits(want))
				failures++
			}
		}
		if failures > 20 {
			t.FailNow()
		}
	}
	for _, r := range rates {
		for i := -40000; i <= 150000; i++ {
			check(r, float64(i)/1000)
		}
		for _, table := range [][Mod64QAM + 1][len(codingGainDB)]float64{berZeroSNR, ferZeroSNR} {
			edge := table[r.Mod][codeClass(r)]
			check(r, math.Nextafter(edge, math.Inf(-1)))
			check(r, edge)
			check(r, math.Nextafter(edge, math.Inf(1)))
		}
		for _, snr := range []float64{math.Inf(-1), math.Inf(1), math.NaN()} {
			check(r, snr)
		}
	}
}

func TestSNRFromRSSI(t *testing.T) {
	if got := SNRFromRSSI(-64); got != 30 {
		t.Fatalf("SNRFromRSSI(-64) = %v, want 30", got)
	}
}

func TestBandString(t *testing.T) {
	if Band2GHz.String() != "2.4 GHz" || Band5GHz.String() != "5 GHz" {
		t.Fatal("band strings wrong")
	}
	if Rate54.String() != "54 Mbps" || Rate5x5.String() != "5.5 Mbps" {
		t.Fatal("rate strings wrong")
	}
}

func BenchmarkAirtime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Airtime(Rate24, 1500)
	}
}

// BenchmarkFER times FER below its zero threshold, where the full
// expression runs, and above it, where FER returns 0 from a table
// lookup.
func BenchmarkFER(b *testing.B) {
	for _, bc := range []struct {
		name string
		snr  float64
	}{
		{"below_zero", 25},
		{"above_zero", ferZeroSNR[Mod64QAM][codeClass(Rate54)] + 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				FER(Rate54, bc.snr, 1500)
			}
		})
	}
}

func BenchmarkPickRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		PickRate(25)
	}
}
