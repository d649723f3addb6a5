package main

import (
	"encoding/binary"
	"math"
	"testing"
	"time"
)

// Protobuf encoding helpers for building a synthetic pprof profile.
func pbVarint(b []byte, field int, v uint64) []byte {
	b = binary.AppendUvarint(b, uint64(field)<<3)
	return binary.AppendUvarint(b, v)
}

func pbBytes(b []byte, field int, data []byte) []byte {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func pbPacked(b []byte, field int, vs ...uint64) []byte {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return pbBytes(b, field, p)
}

// synthProfile encodes a CPU profile whose samples are the given
// stacks (leaf first), each worth the given CPU. Every frame gets its
// own location, except that a stack entry "a|b" is one location with
// a inlined into b, so inlined frames are decoded too.
func synthProfile(stacks [][]string, cpu []time.Duration) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := map[string]uint64{}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strs = append(strs, s)
		strIdx[s] = uint64(len(strs) - 1)
		return strIdx[s]
	}
	var msg []byte
	vt := func(typ, unit uint64) []byte { return pbVarint(pbVarint(nil, 1, typ), 2, unit) }
	msg = pbBytes(msg, 1, vt(1, 2))
	msg = pbBytes(msg, 1, vt(3, 4))

	funcID := map[string]uint64{}
	var funcs, locs []byte
	nextLoc := uint64(1)
	for i, stack := range stacks {
		var locIDs []uint64
		for _, frame := range stack {
			loc := pbVarint(nil, 1, nextLoc)
			for _, fn := range splitInlined(frame) {
				id, ok := funcID[fn]
				if !ok {
					id = uint64(len(funcID) + 1)
					funcID[fn] = id
					funcs = pbBytes(funcs, 5, pbVarint(pbVarint(nil, 1, id), 2, intern(fn)))
				}
				loc = pbBytes(loc, 4, pbVarint(nil, 1, id))
			}
			locs = pbBytes(locs, 4, loc)
			locIDs = append(locIDs, nextLoc)
			nextLoc++
		}
		sample := pbPacked(nil, 1, locIDs...)
		sample = pbPacked(sample, 2, 1, uint64(cpu[i]))
		msg = pbBytes(msg, 2, sample)
	}
	msg = append(msg, locs...)
	msg = append(msg, funcs...)
	for _, s := range strs {
		msg = pbBytes(msg, 6, []byte(s))
	}
	return msg
}

func splitInlined(frame string) []string {
	for i := 0; i < len(frame); i++ {
		if frame[i] == '|' {
			return append([]string{frame[:i]}, splitInlined(frame[i+1:])...)
		}
	}
	return []string{frame}
}

// TestLedgerSyntheticProfile runs the reconciler on a profile whose
// attribution is known sample by sample.
func TestLedgerSyntheticProfile(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		stack []string
		cpu   time.Duration
		layer string
	}{
		// Leaf-most sim frame wins over the bench frames at the root.
		{[]string{"politewifi/internal/phy.FER", "politewifi/internal/phy.PickRate", "politewifi/internal/world.runStop", "main.runDrive", "main.main"}, 40 * ms, "phy"},
		// Standard-library leaves are charged to their sim caller.
		{[]string{"runtime.mallocgc", "politewifi/internal/radio.(*Medium).Transmit.func2", "politewifi/internal/eventsim.(*Scheduler).RunFor"}, 20 * ms, "radio"},
		// Nested packages are named by their last path element.
		{[]string{"encoding/json.Marshal", "politewifi/internal/telemetry/stream.(*Writer).Write", "politewifi/internal/world.Run.func1"}, 10 * ms, "stream"},
		// An inlined sim frame inside a scheduler location.
		{[]string{"politewifi/internal/crypto80211.pbkdf2|politewifi/internal/eventsim.(*Scheduler).fire", "main.runLab"}, 10 * ms, "crypto80211"},
		// GC work: background mark workers and mark assists.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 7 * ms, "gc"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "politewifi/internal/phy.FER"}, 3 * ms, "gc"},
		// The benchmark's own wrapper, called from inside the sim.
		{[]string{"main.(*timedWriter).Write", "politewifi/internal/telemetry/stream.(*Writer).Write"}, 4 * ms, "bench"},
		{[]string{"crypto/sha256.block", "main.censusDigest", "main.runDrive"}, 2 * ms, "bench"},
		// No deciding frame: the explicit residual.
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.schedule"}, 3 * ms, "residual"},
		{[]string{"net/http.(*conn).readRequest", "net/http.(*conn).serve"}, 1 * ms, "residual"},
	}
	var stacks [][]string
	var cpus []time.Duration
	want := map[string]time.Duration{}
	var total time.Duration
	for _, c := range cases {
		stacks = append(stacks, c.stack)
		cpus = append(cpus, c.cpu)
		want[c.layer] += c.cpu
		total += c.cpu
		if got := layerOf(splitAll(c.stack)); got != c.layer {
			t.Errorf("layerOf(%q) = %q, want %q", c.stack, got, c.layer)
		}
	}

	samples, err := parseProfile(synthProfile(stacks, cpus))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(cases) {
		t.Fatalf("decoded %d samples, want %d", len(samples), len(cases))
	}
	got := attribute(samples)
	for layer, cpu := range want {
		if got[layer] != cpu {
			t.Errorf("%s: %v, want %v", layer, got[layer], cpu)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}

	values := map[string]float64{}
	addLedgerRows(values, samples)
	var sum float64
	for _, l := range append([]string{"gc", "bench", "residual"}, simLayers...) {
		sum += values[l+".cpu_s"]
	}
	if math.Abs(sum-total.Seconds()) > 1e-9 || math.Abs(values["profile.cpu_s"]-total.Seconds()) > 1e-9 {
		t.Errorf("rows sum to %v, profile.cpu_s %v, want %v", sum, values["profile.cpu_s"], total.Seconds())
	}
}

// TestLedgerUnknownLayerIsResidual: a sim package outside simLayers
// still lands in a stated row.
func TestLedgerUnknownLayerIsResidual(t *testing.T) {
	values := map[string]float64{}
	addLedgerRows(values, []profSample{
		{stack: []string{"politewifi/internal/fuzzer.Shrink"}, cpu: 5 * time.Millisecond},
		{stack: []string{"runtime.futex"}, cpu: 5 * time.Millisecond},
	})
	if values["residual.cpu_s"] != 0.01 {
		t.Fatalf("residual.cpu_s = %v, want 0.01", values["residual.cpu_s"])
	}
}

func splitAll(stack []string) []string {
	var out []string
	for _, f := range stack {
		out = append(out, splitInlined(f)...)
	}
	return out
}

// TestParseRealProfile decodes a profile runtime/pprof wrote for this
// process and finds the test's own busy loop in it.
func TestParseRealProfile(t *testing.T) {
	p, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 1.0
	for time.Now().Before(deadline) {
		x = math.Sqrt(x + 1)
	}
	values := map[string]float64{}
	if err := p.stop(values); err != nil {
		t.Fatal(err)
	}
	if x == 0 || values["profile.cpu_s"] == 0 || values["bench.cpu_s"] == 0 {
		t.Fatalf("busy loop not attributed to bench: %v", values)
	}
	if c := values["profile.coverage"]; c <= 0 || c > 1.5 {
		t.Fatalf("profile.coverage = %v", c)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{{0xff}, {0x12, 0x05, 0x01}, pbVarint(nil, 2, 1)[:1]} {
		if _, err := parseProfile(data); err == nil {
			t.Errorf("parseProfile(%x) succeeded", data)
		}
	}
}
