package load

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"politewifi/internal/lint/analysis"
)

// Config controls a graph load.
type Config struct {
	// Dir is the directory go commands run in ("" = current).
	Dir string
	// Tests includes in-package and external test units for targets.
	Tests bool
	// Workers bounds concurrent type-checking (0 = GOMAXPROCS).
	Workers int
}

// Graph is the interprocedural loader's product: the target units the
// caller asked to analyze plus every in-module dependency package, in
// topological order, so the driver can compute purity facts bottom-up
// before running diagnostics. Type-checking is lazy and memoized;
// Prefetch checks a batch in parallel.
type Graph struct {
	// Targets are the unit keys to run diagnostics on (test variants
	// when Tests is set), in deterministic order.
	Targets []string
	// Order lists the plain in-module packages needing facts —
	// dependencies before dependents.
	Order []string
	// Units maps every unit key (targets and fact packages) to its
	// load unit.
	Units map[string]*Unit
	// ModuleDeps maps a unit key to its direct in-module dependencies
	// (plain paths, sorted) — the edges facts propagate across.
	ModuleDeps map[string][]string

	workers int
	mu      sync.Mutex
	checked map[string]*checkEntry
}

type checkEntry struct {
	once sync.Once
	pkg  *Package
	err  error
}

// Load resolves patterns into a Graph.
func Load(cfg Config, patterns ...string) (*Graph, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("load: no patterns")
	}
	modPath, err := modulePath(cfg.Dir)
	if err != nil {
		return nil, err
	}

	targets, err := expand(cfg.Dir, patterns)
	if err != nil {
		return nil, err
	}

	args := []string{"list", "-e", "-deps", "-export", "-json"}
	if cfg.Tests {
		args = append(args, "-test")
	}
	args = append(args, "--")
	args = append(args, patterns...)
	out, err := runGo(cfg.Dir, args...)
	if err != nil {
		return nil, err
	}

	var all []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %v", err)
		}
		all = append(all, &p)
	}

	exports := make(map[string]string, len(all))
	for _, p := range all {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	superseded := make(map[string]bool)
	for _, p := range all {
		if p.ForTest != "" && !strings.HasSuffix(p.ImportPath, ".test") && !strings.Contains(p.ImportPath, "_test [") {
			superseded[p.ForTest] = true
		}
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	g := &Graph{
		Units:      make(map[string]*Unit),
		ModuleDeps: make(map[string][]string),
		workers:    workers,
		checked:    make(map[string]*checkEntry),
	}

	inModule := func(path string) bool {
		path = analysis.TrimTestVariant(path)
		return path == modPath || strings.HasPrefix(path, modPath+"/")
	}

	addUnit := func(p *listPackage) {
		g.Units[p.ImportPath] = &Unit{
			ImportPath:  p.ImportPath,
			Dir:         p.Dir,
			GoFiles:     p.GoFiles,
			ImportMap:   p.ImportMap,
			PackageFile: exports,
		}
		deps := make(map[string]bool)
		for _, imp := range p.Imports {
			if mapped, ok := p.ImportMap[imp]; ok {
				imp = mapped
			}
			imp = analysis.TrimTestVariant(imp)
			if inModule(imp) && imp != analysis.TrimTestVariant(p.ImportPath) && !strings.HasSuffix(imp, ".test") {
				deps[imp] = true
			}
		}
		g.ModuleDeps[p.ImportPath] = sortedKeys(deps)
	}

	for _, p := range all {
		isTestMain := strings.HasSuffix(p.ImportPath, ".test") && p.Name == "main"
		if isTestMain {
			continue
		}
		if isTarget(p, targets) && !(p.ForTest == "" && superseded[p.ImportPath]) {
			if p.Error != nil {
				return nil, fmt.Errorf("load: %s: %s", p.ImportPath, p.Error.Err)
			}
			g.Targets = append(g.Targets, p.ImportPath)
			addUnit(p)
		}
		// Every plain in-module package — target or dependency — joins
		// the fact universe.
		if p.ForTest == "" && inModule(p.ImportPath) && len(p.GoFiles) > 0 {
			if _, seen := g.Units[p.ImportPath]; !seen {
				if p.Error != nil {
					return nil, fmt.Errorf("load: %s: %s", p.ImportPath, p.Error.Err)
				}
				addUnit(p)
			}
			g.Order = append(g.Order, p.ImportPath)
		}
	}
	sort.Strings(g.Targets)
	g.Order = topoSort(g.Order, g.ModuleDeps)
	return g, nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// topoSort orders the plain packages dependencies-first. Ties break
// lexicographically so the order — and everything derived from it —
// is deterministic. Cycles cannot occur in a valid import graph; if
// one sneaks in via -e, the members drop out rather than hanging.
func topoSort(nodes []string, deps map[string][]string) []string {
	inSet := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		inSet[n] = true
	}
	indeg := make(map[string]int, len(nodes))
	dependents := make(map[string][]string)
	for _, n := range nodes {
		for _, d := range deps[n] {
			if inSet[d] {
				indeg[n]++
				dependents[d] = append(dependents[d], n)
			}
		}
	}
	ready := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if indeg[n] == 0 {
			ready = append(ready, n)
		}
	}
	sort.Strings(ready)
	var order []string
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		order = append(order, n)
		next := append([]string(nil), dependents[n]...)
		sort.Strings(next)
		for _, m := range next {
			if indeg[m]--; indeg[m] == 0 {
				ready = append(ready, m)
			}
		}
		sort.Strings(ready)
	}
	return order
}

// Package type-checks the unit with the given key, memoized.
func (g *Graph) Package(key string) (*Package, error) {
	g.mu.Lock()
	e, ok := g.checked[key]
	if !ok {
		e = &checkEntry{}
		g.checked[key] = e
	}
	u := g.Units[key]
	g.mu.Unlock()
	if u == nil {
		return nil, fmt.Errorf("load: no unit %q", key)
	}
	e.once.Do(func() { e.pkg, e.err = check(*u) })
	return e.pkg, e.err
}

// Prefetch type-checks the given units concurrently (bounded by the
// configured worker count) so later Package calls return instantly.
// Individual failures surface on the Package call, not here.
func (g *Graph) Prefetch(keys []string) {
	sem := make(chan struct{}, g.workers)
	var wg sync.WaitGroup
	for _, key := range keys {
		wg.Add(1)
		sem <- struct{}{}
		go func(k string) {
			defer wg.Done()
			defer func() { <-sem }()
			g.Package(k) //nolint:errcheck — reported when the caller asks
		}(key)
	}
	wg.Wait()
}

// Workers reports the configured concurrency bound.
func (g *Graph) Workers() int { return g.workers }

// FileHash returns the hex SHA-256 of one of the unit's source files,
// for fact-cache keying.
func (u *Unit) FileHash(name string) (string, error) {
	if !filepath.IsAbs(name) {
		name = filepath.Join(u.Dir, name)
	}
	data, err := os.ReadFile(name)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// modulePath resolves the enclosing module's import path.
func modulePath(dir string) (string, error) {
	out, err := runGo(dir, "list", "-m", "-json")
	if err != nil {
		return "", err
	}
	var m struct{ Path string }
	if err := json.Unmarshal(out, &m); err != nil {
		return "", fmt.Errorf("load: decoding go list -m output: %v", err)
	}
	if m.Path == "" {
		return "", fmt.Errorf("load: not in a module")
	}
	return m.Path, nil
}
