package experiments

import (
	"fmt"
	"sort"
	"strings"

	"politewifi/internal/oui"
	"politewifi/internal/world"
)

// Table2Result reproduces the §3 large-scale study: the wardrive
// census of WiFi devices and APs that respond to fake frames.
type Table2Result struct {
	Run *world.Result

	// ResponseRate is the headline number (the paper: 100%).
	ResponseRate float64
	// Paper totals for comparison.
	PaperClients, PaperAPs int
}

// Table2WithConfig runs the study with an explicit wardrive
// configuration — the hook for custom dwell times and for attaching a
// telemetry registry (cfg.Metrics) to the drive.
func Table2WithConfig(cfg world.Config) *Table2Result {
	return Table2FromResult(world.Run(cfg))
}

// Table2FromResult wraps an already-run drive — the politewifid job
// path, where the daemon owns the Run call (cancellation, shared
// pool, resume) and only the rendering is delegated here.
func Table2FromResult(res *world.Result) *Table2Result {
	out := &Table2Result{
		Run:          res,
		PaperClients: oui.TotalClients,
		PaperAPs:     oui.TotalAPs,
	}
	if res.Total() > 0 {
		out.ResponseRate = float64(res.TotalResponded()) / float64(res.Total())
	}
	return out
}

func topVendors(m map[string]int, n int) []oui.CensusEntry {
	entries := make([]oui.CensusEntry, 0, len(m))
	for v, c := range m {
		entries = append(entries, oui.CensusEntry{Vendor: v, Count: c})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Count != entries[j].Count {
			return entries[i].Count > entries[j].Count
		}
		return entries[i].Vendor < entries[j].Vendor
	})
	if n > len(entries) {
		n = len(entries)
	}
	return entries[:n]
}

// Render prints the two top-20 vendor columns of Table 2 plus totals.
func (r *Table2Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 2: WiFi devices and APs that respond to our fake 802.11 frames\n\n")
	clients := topVendors(r.Run.ClientVendors, 20)
	aps := topVendors(r.Run.APVendors, 20)
	fmt.Fprintf(&b, "%-24s %9s   | %-24s %9s\n", "Client vendor", "# devices", "AP vendor", "# devices")
	rows := len(clients)
	if len(aps) > rows {
		rows = len(aps)
	}
	var cOthers, aOthers int
	for v, c := range r.Run.ClientVendors {
		if !inTop(clients, v) {
			cOthers += c
		}
	}
	for v, c := range r.Run.APVendors {
		if !inTop(aps, v) {
			aOthers += c
		}
	}
	for i := 0; i < rows; i++ {
		var l, rgt string
		if i < len(clients) {
			l = fmt.Sprintf("%-24s %9d", clients[i].Vendor, clients[i].Count)
		} else {
			l = fmt.Sprintf("%-24s %9s", "", "")
		}
		if i < len(aps) {
			rgt = fmt.Sprintf("%-24s %9d", aps[i].Vendor, aps[i].Count)
		}
		fmt.Fprintf(&b, "%s   | %s\n", l, rgt)
	}
	fmt.Fprintf(&b, "%-24s %9d   | %-24s %9d\n", "Others", cOthers, "Others", aOthers)
	fmt.Fprintf(&b, "%-24s %9d   | %-24s %9d\n", "Total", r.Run.ClientsResponded, "Total", r.Run.APsResponded)
	if r.Run.Cancelled {
		// A deliberately partial drive: say so, and report how much of
		// the route the census actually covers.
		fmt.Fprintf(&b, "\ndiscovered %d devices over %d of %d stops (drive cancelled)\n",
			r.Run.Total(), r.Run.StopsDone, r.Run.Stops)
	} else {
		fmt.Fprintf(&b, "\ndiscovered %d devices over %d stops (~%.0f min drive)\n",
			r.Run.Total(), r.Run.Stops, r.Run.DriveMinutes)
	}
	fmt.Fprintf(&b, "responded to fake frames: %d (%.1f%%)\n",
		r.Run.TotalResponded(), 100*r.ResponseRate)
	if len(r.Run.NonResponders) > 0 {
		// Report how many non-responders the channel left unclassified
		// (lossy or contended probes) rather than confirmed silent.
		fmt.Fprintf(&b, "non-responders: %d (%d inconclusive, %d silent)\n",
			len(r.Run.NonResponders), r.Run.Inconclusive,
			len(r.Run.NonResponders)-r.Run.Inconclusive)
	}
	return b.String()
}

func inTop(top []oui.CensusEntry, vendor string) bool {
	for _, e := range top {
		if e.Vendor == vendor {
			return true
		}
	}
	return false
}
