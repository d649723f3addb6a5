package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"politewifi/internal/eventsim"
)

// ReportSchema identifies the report encoding; bump on breaking
// changes to the JSON layout.
const ReportSchema = "politewifi.telemetry/v1"

// Report is a stable, machine-readable snapshot of a registry. All
// slices are sorted by name so the JSON encoding of two snapshots of
// identical runs is byte-identical.
type Report struct {
	Schema    string `json:"schema"`
	SimTimeNS int64  `json:"sim_time_ns"`

	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// CounterSnapshot is one counter's state at snapshot time.
type CounterSnapshot struct {
	Name         string `json:"name"`
	Help         string `json:"help,omitempty"`
	Value        uint64 `json:"value"`
	LastUpdateNS int64  `json:"last_update_ns"`
}

// GaugeSnapshot is one gauge's state at snapshot time. Set records
// whether the gauge was ever written — a registered-but-untouched
// gauge reports zero, which restoration (RestoreRegistry) must not
// mistake for a measured zero.
type GaugeSnapshot struct {
	Name         string  `json:"name"`
	Help         string  `json:"help,omitempty"`
	Value        float64 `json:"value"`
	Max          float64 `json:"max"`
	Set          bool    `json:"set,omitempty"`
	LastUpdateNS int64   `json:"last_update_ns"`
}

// HistogramBucket is one bucket of a histogram snapshot.
type HistogramBucket struct {
	LE    string `json:"le"` // upper bound; "+Inf" for overflow
	Count uint64 `json:"count"`
}

// HistogramSnapshot is one histogram's state at snapshot time.
type HistogramSnapshot struct {
	Name         string            `json:"name"`
	Help         string            `json:"help,omitempty"`
	Count        uint64            `json:"count"`
	Sum          float64           `json:"sum"`
	Min          float64           `json:"min"`
	Max          float64           `json:"max"`
	Buckets      []HistogramBucket `json:"buckets"`
	LastUpdateNS int64             `json:"last_update_ns"`
}

// Snapshot captures every instrument (including sampled funcs) into
// a Report. It is safe to call while the simulation is quiescent;
// sampled funcs read their sources at this moment.
func (r *Registry) Snapshot() Report {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	cfuncs := make(map[string]*counterFunc, len(r.counterFuncs))
	for k, v := range r.counterFuncs {
		cfuncs[k] = v
	}
	gfuncs := make(map[string]*gaugeFunc, len(r.gaugeFuncs))
	for k, v := range r.gaugeFuncs {
		gfuncs[k] = v
	}
	mfuncs := make(map[string]*multiCounterFunc, len(r.multiFuncs))
	for k, v := range r.multiFuncs {
		mfuncs[k] = v
	}
	clock := r.clock
	r.mu.Unlock()

	rep := Report{Schema: ReportSchema, SimTimeNS: int64(clock())}

	for name, c := range counters {
		rep.Counters = append(rep.Counters, CounterSnapshot{
			Name: name, Help: c.help, Value: c.Value(), LastUpdateNS: int64(c.LastUpdate()),
		})
	}
	for name, cf := range cfuncs {
		rep.Counters = append(rep.Counters, CounterSnapshot{
			Name: name, Help: cf.help, Value: cf.fn(), LastUpdateNS: rep.SimTimeNS,
		})
	}
	for prefix, mf := range mfuncs {
		for suffix, v := range mf.fn() {
			rep.Counters = append(rep.Counters, CounterSnapshot{
				Name: prefix + "." + suffix, Help: mf.help, Value: v, LastUpdateNS: rep.SimTimeNS,
			})
		}
	}
	for name, g := range gauges {
		g.mu.Lock()
		rep.Gauges = append(rep.Gauges, GaugeSnapshot{
			Name: name, Help: g.help, Value: g.v, Max: g.max, Set: g.set, LastUpdateNS: int64(g.lastAt),
		})
		g.mu.Unlock()
	}
	for name, gf := range gfuncs {
		v := gf.fn()
		rep.Gauges = append(rep.Gauges, GaugeSnapshot{
			Name: name, Help: gf.help, Value: v, Max: v, Set: true, LastUpdateNS: rep.SimTimeNS,
		})
	}
	for name, h := range hists {
		h.mu.Lock()
		snap := HistogramSnapshot{
			Name: name, Help: h.help, Count: h.n, Sum: h.sum,
			LastUpdateNS: int64(h.lastAt),
		}
		if h.n > 0 {
			snap.Min, snap.Max = h.min, h.max
		}
		for i, b := range h.bounds {
			snap.Buckets = append(snap.Buckets, HistogramBucket{LE: fmtBound(b), Count: h.counts[i]})
		}
		snap.Buckets = append(snap.Buckets, HistogramBucket{LE: "+Inf", Count: h.counts[len(h.bounds)]})
		h.mu.Unlock()
		rep.Histograms = append(rep.Histograms, snap)
	}

	sort.Slice(rep.Counters, func(i, j int) bool { return rep.Counters[i].Name < rep.Counters[j].Name })
	sort.Slice(rep.Gauges, func(i, j int) bool { return rep.Gauges[i].Name < rep.Gauges[j].Name })
	sort.Slice(rep.Histograms, func(i, j int) bool { return rep.Histograms[i].Name < rep.Histograms[j].Name })
	return rep
}

// WriteJSON encodes the report as indented JSON. The encoding is
// stable: identical runs produce byte-identical files.
func (rep Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Counter returns the snapshot of the named counter (nil if absent).
func (rep Report) Counter(name string) *CounterSnapshot {
	for i := range rep.Counters {
		if rep.Counters[i].Name == name {
			return &rep.Counters[i]
		}
	}
	return nil
}

// Render formats the report as a human-readable table grouped by
// family — what `politewifi stats` prints.
func (rep Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "telemetry report @ sim %s (%s)\n", eventsim.Time(rep.SimTimeNS), rep.Schema)

	lastFam := ""
	famOf := func(name string) string {
		if i := strings.IndexByte(name, '.'); i >= 0 {
			return name[:i]
		}
		return name
	}
	sectionHeader := func(name string) {
		if f := famOf(name); f != lastFam {
			fmt.Fprintf(&b, "\n[%s]\n", f)
			lastFam = f
		}
	}

	if len(rep.Counters) > 0 {
		b.WriteString("\n== counters ==\n")
		lastFam = ""
		for _, c := range rep.Counters {
			sectionHeader(c.Name)
			fmt.Fprintf(&b, "  %-44s %12d   last@%s\n", c.Name, c.Value, eventsim.Time(c.LastUpdateNS))
		}
	}
	if len(rep.Gauges) > 0 {
		b.WriteString("\n== gauges ==\n")
		lastFam = ""
		for _, g := range rep.Gauges {
			sectionHeader(g.Name)
			fmt.Fprintf(&b, "  %-44s %12g   max %g\n", g.Name, g.Value, g.Max)
		}
	}
	if len(rep.Histograms) > 0 {
		b.WriteString("\n== histograms ==\n")
		lastFam = ""
		for _, h := range rep.Histograms {
			sectionHeader(h.Name)
			mean := 0.0
			if h.Count > 0 {
				mean = h.Sum / float64(h.Count)
			}
			fmt.Fprintf(&b, "  %-44s n=%-8d mean=%-10.2f min=%-10.2f max=%-10.2f\n",
				h.Name, h.Count, mean, zeroIfInf(h.Min), zeroIfInf(h.Max))
			for _, bk := range h.Buckets {
				if bk.Count == 0 {
					continue
				}
				fmt.Fprintf(&b, "    le %-8s %10d %s\n", bk.LE, bk.Count, bar(bk.Count, h.Count))
			}
		}
	}
	return b.String()
}

func zeroIfInf(v float64) float64 {
	if math.IsInf(v, 0) {
		return 0
	}
	return v
}

func bar(n, total uint64) string {
	if total == 0 {
		return ""
	}
	w := int(float64(n) / float64(total) * 40)
	return strings.Repeat("#", w)
}
