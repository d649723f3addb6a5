// Package lint is politevet's driver: it runs the politewifi
// invariant analyzers over type-checked packages, applies
// //politevet:allow suppression, and validates the directives
// themselves. The analyzers mechanically enforce what the simulator's
// bit-identical-census guarantee rests on — no wall clock, no global
// RNG, no unsorted map iteration into emit paths, no unguarded
// duration narrowing, no hot-spin polling, no pooled buffer escaping
// its stop — so the invariants live in CI instead of in reviewers'
// heads. See DESIGN.md §5e and §5j.
//
// Since the interprocedural upgrade the driver runs in two phases.
// Phase A walks every in-module package in dependency order and runs
// the purity fact pass (internal/lint/purity) over each, producing a
// frozen per-package fact set; sets are content-addressed in a fact
// cache, so unchanged subtrees cost one hash check. Phase B runs the
// user-facing analyzers over the target units (test variants
// included) in parallel, with the full fact universe attached to
// each pass — which is what lets wallclock report `world.Run →
// rt.poll → time.Now` instead of only direct calls.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"sync"

	"politewifi/internal/lint/analysis"
	"politewifi/internal/lint/bufreuse"
	"politewifi/internal/lint/durwrap"
	"politewifi/internal/lint/globalrand"
	"politewifi/internal/lint/load"
	"politewifi/internal/lint/purity"
	"politewifi/internal/lint/simsleep"
	"politewifi/internal/lint/sortedrange"
	"politewifi/internal/lint/unusedallow"
	"politewifi/internal/lint/wallclock"
)

// DirectiveChecker is the name under which malformed or unknown
// //politevet:allow directives are reported. Directive findings are
// never suppressible: an escape hatch that can silence the check on
// its own grammar is no escape hatch at all.
const DirectiveChecker = "directive"

// Analyzers returns the politevet analyzer set in stable order. The
// purity fact pass is not in it: the driver always prepends it.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		bufreuse.Analyzer,
		durwrap.Analyzer,
		globalrand.Analyzer,
		simsleep.Analyzer,
		sortedrange.Analyzer,
		unusedallow.Analyzer,
		wallclock.Analyzer,
	}
}

// Finding is one surfaced diagnostic.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Analyzer)
}

// computeFacts runs the purity pass over one type-checked package and
// returns its frozen fact set. imported supplies the frozen sets of
// already-analyzed dependencies, keyed by plain import path.
func computeFacts(pkg *load.Package, imported map[string]*analysis.FactSet) (*analysis.FactSet, error) {
	facts := &analysis.Facts{
		Current:  analysis.NewFactSet(analysis.TrimTestVariant(pkg.ImportPath)),
		Imported: imported,
	}
	pass := &analysis.Pass{
		Analyzer:  purity.Analyzer,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Facts:     facts,
		Report:    func(analysis.Diagnostic) {}, // the fact pass reports nothing
	}
	if err := purity.Analyzer.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: purity: %v", pkg.ImportPath, err)
	}
	facts.Current.Freeze()
	return facts.Current, nil
}

// RunPackage applies the analyzers to one package, filters findings
// through valid //politevet:allow directives, and appends directive
// grammar violations and stale-directive findings. The purity fact
// pass always runs first so same-package transitive checks work even
// without a dependency fact universe; pass imported dependency sets
// (or nil) via facts. Findings come back sorted by position.
func RunPackage(pkg *load.Package, analyzers []*analysis.Analyzer, imported map[string]*analysis.FactSet) ([]Finding, error) {
	supp := analysis.NewSuppressor(pkg.Fset, pkg.Files)
	// Directives may name any registered analyzer, including ones the
	// caller disabled for this run.
	known := make(map[string]bool, len(analyzers))
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	ran := make(map[string]bool, len(analyzers))
	wantUnused := false
	for _, a := range analyzers {
		known[a.Name] = true
		if a.Name == unusedallow.Analyzer.Name {
			wantUnused = true
			continue
		}
		ran[a.Name] = true
	}

	facts := &analysis.Facts{
		Current:  analysis.NewFactSet(analysis.TrimTestVariant(pkg.ImportPath)),
		Imported: nil,
	}
	if imported != nil {
		facts.Imported = imported
	}

	var findings []Finding
	runOne := func(a *analysis.Analyzer, report func(analysis.Diagnostic)) error {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Facts:     facts,
			Report:    report,
		}
		if err := a.Run(pass); err != nil {
			return fmt.Errorf("%s: %s: %v", pkg.ImportPath, a.Name, err)
		}
		return nil
	}

	// The fact pass first: it populates facts.Current, which the
	// analyzers consult for same-package callees.
	if err := runOne(purity.Analyzer, func(analysis.Diagnostic) {}); err != nil {
		return nil, err
	}

	for _, a := range analyzers {
		if a.Name == unusedallow.Analyzer.Name {
			continue // driver-level; handled after the analyzers report
		}
		name := a.Name
		if err := runOne(a, func(d analysis.Diagnostic) {
			if supp.Suppressed(name, d.Pos) {
				return
			}
			findings = append(findings, Finding{
				Analyzer: name,
				Pos:      pkg.Fset.Position(d.Pos),
				Message:  d.Message,
			})
		}); err != nil {
			return nil, err
		}
	}

	for _, f := range pkg.Files {
		for _, d := range analysis.ParseDirectives(f) {
			switch {
			case d.Malformed != "":
				findings = append(findings, Finding{
					Analyzer: DirectiveChecker,
					Pos:      pkg.Fset.Position(d.Pos),
					Message:  d.Malformed,
				})
			case !known[d.Analyzer]:
				findings = append(findings, Finding{
					Analyzer: DirectiveChecker,
					Pos:      pkg.Fset.Position(d.Pos),
					Message:  fmt.Sprintf("directive names unknown analyzer %q", d.Analyzer),
				})
			}
		}
	}

	if wantUnused {
		for _, d := range supp.Unused(ran) {
			findings = append(findings, Finding{
				Analyzer: unusedallow.Analyzer.Name,
				Pos:      pkg.Fset.Position(d.Pos),
				Message: fmt.Sprintf("//politevet:allow %s(%s) suppressed nothing this run; "+
					"the finding it excused is gone — remove the stale directive", d.Analyzer, d.Reason),
			})
		}
	}

	sortFindings(findings)
	return findings, nil
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Options configures an interprocedural run.
type Options struct {
	// Dir is where go commands run ("" = current directory).
	Dir string
	// Patterns are go list package patterns; required.
	Patterns []string
	// Tests includes test units for the targets (default in Run).
	Tests bool
	// Workers bounds parallel type-checking and target analysis
	// (0 = GOMAXPROCS).
	Workers int
	// FactCache is the cache directory spec: "" for the per-user
	// default, "off" to disable.
	FactCache string
	// Analyzers is the user-facing set to run (nil = all).
	Analyzers []*analysis.Analyzer
}

// Result carries a run's findings plus the fact universe it computed,
// which the certificate renderer consumes.
type Result struct {
	Findings []Finding
	// FactSets maps each in-module package (plain path) to its frozen
	// fact set.
	FactSets map[string]*analysis.FactSet
	// Graph is the loaded package graph.
	Graph *load.Graph
}

// RunOpts is the two-phase interprocedural driver.
func RunOpts(opts Options) (*Result, error) {
	g, err := load.Load(load.Config{Dir: opts.Dir, Tests: opts.Tests, Workers: opts.Workers}, opts.Patterns...)
	if err != nil {
		return nil, err
	}
	analyzers := opts.Analyzers
	if analyzers == nil {
		analyzers = Analyzers()
	}

	factSets, err := factPhase(g, opts.FactCache)
	if err != nil {
		return nil, err
	}

	// Phase B: analyze the target units in parallel. Output order is
	// restored by position sort, so concurrency never shows.
	g.Prefetch(g.Targets)
	type targetResult struct {
		findings []Finding
		err      error
	}
	results := make([]targetResult, len(g.Targets))
	sem := make(chan struct{}, g.Workers())
	var wg sync.WaitGroup
	for i, target := range g.Targets {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, target string) {
			defer wg.Done()
			defer func() { <-sem }()
			pkg, err := g.Package(target)
			if err != nil {
				results[i] = targetResult{err: err}
				return
			}
			fs, err := RunPackage(pkg, analyzers, factSets)
			results[i] = targetResult{findings: fs, err: err}
		}(i, target)
	}
	wg.Wait()

	var all []Finding
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		all = append(all, r.findings...)
	}
	sortFindings(all)
	return &Result{Findings: all, FactSets: factSets, Graph: g}, nil
}

// factPhase computes (or loads from cache) the fact set of every
// in-module package, dependencies first.
func factPhase(g *load.Graph, cacheSpec string) (map[string]*analysis.FactSet, error) {
	cache := openFactCache(cacheSpec)
	factSets := make(map[string]*analysis.FactSet, len(g.Order))
	keys := make(map[string]string, len(g.Order))
	var misses []string
	for _, path := range g.Order {
		key, err := factKey(g.Units[path], path, g.ModuleDeps[path], keys)
		if err != nil {
			return nil, fmt.Errorf("lint: hashing %s: %v", path, err)
		}
		keys[path] = key
		if data, ok := cache.get(key); ok {
			fs, err := analysis.DecodeFactSet(path, data)
			if err == nil {
				fs.Freeze()
				factSets[path] = fs
				continue
			}
			// A corrupt or version-skewed entry is a miss, not an error.
		}
		misses = append(misses, path)
	}

	// Cache misses need type-checking; do that in parallel up front,
	// then run the (cheap) fact pass sequentially in dependency order
	// so every pass sees its dependencies' completed sets.
	g.Prefetch(misses)
	for _, path := range g.Order {
		if factSets[path] != nil {
			continue
		}
		pkg, err := g.Package(path)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %v", path, err)
		}
		fs, err := computeFacts(pkg, factSets)
		if err != nil {
			return nil, err
		}
		factSets[path] = fs
		if data, err := fs.Encode(); err == nil {
			cache.put(keys[path], data)
		}
	}
	return factSets, nil
}

// Run loads the packages matching patterns (tests included) and runs
// the full analyzer set over each with the default fact cache.
func Run(dir string, patterns ...string) ([]Finding, error) {
	res, err := RunOpts(Options{Dir: dir, Patterns: patterns, Tests: true})
	if err != nil {
		return nil, err
	}
	return res.Findings, nil
}
