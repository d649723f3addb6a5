package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
	"time"
)

// This file is the ledger reconciler: it decodes a runtime/pprof CPU
// profile of this process and charges every sample to one layer. A
// sample's stack is walked from the leaf toward the root and the first
// frame that belongs either to a politewifi/internal/<pkg> package or
// to this benchmark (package main) decides: the former charges the
// layer named by the package's last path element, the latter charges
// "bench". Standard-library and runtime frames above it (encoding,
// hashing, allocation) are charged to that caller. Samples on a GC
// worker or mark-assist stack charge "gc"; samples with no deciding
// frame at all (scheduler, network poller, net/http plumbing) are the
// explicit "residual". The layers therefore sum to the profile total.

const internalPrefix = "politewifi/internal/"

// benchPackage is this benchmark's import path; its functions are
// named "main.*" in the benchmark binary and by import path in its
// test binary.
const benchPackage = "politewifi/perfbench"

// gcRoots mark a sample as garbage-collector work wherever they appear
// on the stack: background mark workers, sweeping and scavenging, and
// mark assists charged to allocating goroutines.
var gcRoots = []string{
	"runtime.gcBgMarkWorker",
	"runtime.gcAssistAlloc",
	"runtime.bgsweep",
	"runtime.bgscavenge",
}

// profSample is one decoded profile sample: its stack as function
// names, leaf first, and the CPU time it stands for.
type profSample struct {
	stack []string
	cpu   time.Duration
}

// attribute charges every sample to its layer and returns the CPU per
// layer; the values sum to the total of all samples.
func attribute(samples []profSample) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range samples {
		out[layerOf(s.stack)] += s.cpu
	}
	return out
}

// layerOf names the layer a stack (leaf first) is charged to.
func layerOf(stack []string) string {
	for _, fn := range stack {
		for _, root := range gcRoots {
			if fn == root {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		pkg := funcPackage(fn)
		switch {
		case pkg == "main" || pkg == benchPackage:
			return "bench"
		case strings.HasPrefix(pkg, internalPrefix):
			return pkg[strings.LastIndexByte(pkg, '/')+1:]
		}
	}
	return "residual"
}

// funcPackage returns the import path of a profile function name such
// as "politewifi/internal/radio.(*Medium).Transmit.func2".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuProfile is a running CPU profile of this process plus the process
// CPU consumed while it ran, so coverage can be stated.
type cpuProfile struct {
	buf   bytes.Buffer
	start time.Duration
}

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{start: processCPU()}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and adds its ledger rows to values, plus
// profile.coverage: profiled CPU ÷ process CPU over the same interval.
func (p *cpuProfile) stop(values map[string]float64) error {
	pprof.StopCPUProfile()
	process := processCPU() - p.start
	samples, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return err
	}
	addLedgerRows(values, samples)
	if process > 0 {
		values["profile.coverage"] = values["profile.cpu_s"] / process.Seconds()
	}
	return nil
}

// addLedgerRows adds <layer>.cpu_s for every attributed layer and
// profile.cpu_s, their sum. Layers outside simLayers (packages no
// workload runs) are folded into residual.
func addLedgerRows(values map[string]float64, samples []profSample) {
	known := map[string]bool{"gc": true, "bench": true, "residual": true}
	for _, l := range simLayers {
		known[l] = true
	}
	var total time.Duration
	for layer, cpu := range attribute(samples) {
		total += cpu
		if !known[layer] {
			layer = "residual"
		}
		values[layer+".cpu_s"] += cpu.Seconds()
	}
	values["profile.cpu_s"] += total.Seconds()
}

// parseProfile decodes a (gzipped) pprof protobuf CPU profile into
// samples. Only the fields attribution needs are read: sample types,
// samples, locations with their (possibly inlined) lines, functions
// and the string table.
func parseProfile(data []byte) ([]profSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		sampleTypes []int64 // string index of each value's type
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location → function ids, innermost first
		funcNames   = map[uint64]int64{}    // function → string index
		strs        []string
	)
	err := eachField(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return eachField(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locs, v, b)
				case 2:
					var vs []uint64
					if err := appendPacked(&vs, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	cpuIdx := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if cpuIdx >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		ps := profSample{cpu: time.Duration(s.values[cpuIdx])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				ps.stack = append(ps.stack, str(funcNames[fn]))
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// eachField walks the top-level fields of one protobuf message, calling
// fn with the field number and either the varint value or the bytes of
// a length-delimited field. Fixed-width fields are skipped.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked
// (one value, b nil) or packed (b holds the varints).
func appendPacked(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
