// Package purity is politevet's interprocedural fact pass: it
// computes, for every function in a package, a purity signature —
// wallclock-tainted, globalrand-tainted, arena-escaping parameters,
// sleep-spinning loops, yield capability, and clamp bounds — and
// exports it as a serializable per-object fact (DESIGN.md §5j).
// Downstream analyzers (wallclock, globalrand, simsleep, bufreuse,
// durwrap) import these facts for their callees, which upgrades them
// from "direct call" to "transitively reachable" checks: a helper in
// internal/eventsim that reads time.Now taints every caller in
// internal/world, and the diagnostic carries the full call chain
// (world.Run → eventsim.poll → time.Now).
//
// Taint carries a sanctioned bit. A //politevet:allow directive on
// the source line (or a cmd/ allowlisted package) marks the taint
// sanctioned: the diagnostic is suppressed everywhere, but the fact
// survives, so `politevet -certify` still lists the function impure —
// widening the sanctioned-impure surface shows up as a CERTIFICATE.md
// diff that must be committed, even though no analyzer fires.
//
// The pass itself reports no diagnostics; it only exports facts. The
// driver runs it first over every unit (and over dependency packages
// in topological order) so the consuming analyzers always see a
// complete fact universe.
package purity

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"politewifi/internal/lint/analysis"
)

// Analyzer computes and exports purity signatures. It is not part of
// the user-facing analyzer set: the driver always prepends it.
var Analyzer = &analysis.Analyzer{
	Name: "purity",
	Doc: "interprocedural fact pass: per-function purity signatures (wallclock/globalrand taint " +
		"with call chains, arena-escaping params, spin loops, yield capability, clamp bounds) " +
		"propagated bottom-up across package boundaries",
	Run: run,
}

// Taint kinds.
const (
	KindWallclock  = "wallclock"
	KindGlobalRand = "globalrand"
)

// Trace records one taint: how the function reaches the source, and
// whether the source (or the call acquiring it) is sanctioned by a
// //politevet:allow directive or a package allowlist.
type Trace struct {
	Sanctioned bool
	Reason     string
	// Chain lists display hops from this function down to the source,
	// e.g. ["eventsim.poll", "time.Now at internal/eventsim/eventsim.go:42"].
	Chain []string
}

// Escape records one parameter whose buffer can outlive the caller's
// stop: passed-in bytes reach a channel send or a package-level store.
type Escape struct {
	Param      int // zero-based parameter index
	Sanctioned bool
	Reason     string
	// Chain lists display hops from this function down to the sink,
	// e.g. ["radio.stash", "package-level store at internal/radio/tap.go:31"].
	Chain []string
}

// Clamp records that a function's single integer result provably fits
// in Bits bits (and, when NonNeg, is provably non-negative) — the
// named const/min-clamp helper shape durwrap sanctions.
type Clamp struct {
	Bits   int
	NonNeg bool
}

// Sig is the per-function purity signature exported as a fact.
type Sig struct {
	Wallclock  *Trace
	GlobalRand *Trace
	// Yields reports whether calling the function could advance
	// simulated time, block, or mutate state outside its frame —
	// anything a polled predicate might observe. Unknown callees are
	// assumed to yield, so false is a proof, true is the default.
	Yields  bool
	Escapes []Escape
	Clamp   *Clamp
	// Spin marks a function containing a busy-wait loop (the simsleep
	// class); recorded for the certificate, not propagated.
	Spin *Trace
}

func (*Sig) AFact() {}

func init() { analysis.RegisterFact(&Sig{}) }

// taint returns the trace for the given kind, or nil.
func (s *Sig) taint(kind string) *Trace {
	switch kind {
	case KindWallclock:
		return s.Wallclock
	case KindGlobalRand:
		return s.GlobalRand
	}
	return nil
}

func (s *Sig) setTaint(kind string, t *Trace) {
	switch kind {
	case KindWallclock:
		s.Wallclock = t
	case KindGlobalRand:
		s.GlobalRand = t
	}
}

// WallclockSources lists the package time functions that observe or
// wait on the wall clock. Pure-value helpers (Duration arithmetic,
// time.Unix construction, parsing) do not read a clock and are absent.
var WallclockSources = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

// GlobalRandSources lists the math/rand (and v2) package-level
// functions that consume the process-global source. Constructors are
// exempt: building a private generator from an explicit seed is the
// sanctioned pattern.
var GlobalRandSources = map[string]map[string]bool{
	"math/rand": set("Int", "Intn", "Int31", "Int31n", "Int63", "Int63n",
		"Uint32", "Uint64", "Float32", "Float64", "NormFloat64", "ExpFloat64",
		"Perm", "Shuffle", "Seed", "Read"),
	"math/rand/v2": set("Int", "IntN", "Int32", "Int32N", "Int64", "Int64N",
		"Uint", "UintN", "Uint32", "Uint32N", "Uint64", "Uint64N",
		"Float32", "Float64", "NormFloat64", "ExpFloat64", "Perm", "Shuffle", "N"),
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// WallclockExempt reports whether the package is exempt from the
// wallclock invariant wholesale: command-line UX legitimately reports
// wall time to a human. Taints seeded there are marked sanctioned.
func WallclockExempt(path string) bool {
	return strings.HasPrefix(path, "cmd/") || strings.Contains(path, "/cmd/")
}

// pureStdPkgs are standard-library packages whose functions provably
// neither block nor mutate observable state — safe to treat as
// non-yielding for the simsleep fact without analyzing their source.
var pureStdPkgs = map[string]bool{
	"math":         true,
	"math/bits":    true,
	"math/cmplx":   true,
	"strconv":      true,
	"unicode":      true,
	"unicode/utf8": true,
}

// maxChain bounds recorded call chains; deeper taints elide middle hops.
const maxChain = 12

// fnInfo is the per-function scratch state of one package's analysis.
type fnInfo struct {
	obj  *types.Func
	decl *ast.FuncDecl
	sig  Sig

	// calls lists resolved static callees in source order, with the
	// first call site of each.
	calls []callSite
	// yieldsFixed is set once Yields can no longer change (seeded true).
	seedYields bool
	// escTracked maps local objects aliasing a trackable parameter to
	// that parameter's index, for escape propagation through call args.
	escTracked map[types.Object]int
}

type callSite struct {
	callee *types.Func
	call   *ast.CallExpr
	pos    token.Pos
}

type pkgAnalysis struct {
	pass   *analysis.Pass
	sup    *analysis.Suppressor
	rel    func(token.Pos) string
	fns    []*fnInfo
	byObj  map[*types.Func]*fnInfo
	exempt bool // wallclock cmd/ allowlist
}

func run(pass *analysis.Pass) error {
	a := &pkgAnalysis{
		pass:   pass,
		sup:    analysis.NewSuppressor(pass.Fset, pass.Files),
		rel:    newRelposer(pass.Fset, pass.Files),
		byObj:  make(map[*types.Func]*fnInfo),
		exempt: WallclockExempt(pass.Pkg.Path()),
	}

	// Collect declared functions in source order.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			fi := &fnInfo{obj: obj, decl: fd}
			a.fns = append(a.fns, fi)
			a.byObj[obj] = fi
		}
	}

	for _, fi := range a.fns {
		a.seed(fi)
	}
	a.fixpoint()

	// Export everything learned so far; the spin scan below reads the
	// freshly exported facts through the normal import path.
	for _, fi := range a.fns {
		a.export(fi)
	}

	for _, spin := range FindSpins(pass) {
		fi := a.enclosing(spin.Pos)
		if fi == nil || fi.sig.Spin != nil {
			continue
		}
		t := &Trace{Chain: []string{"busy-wait loop at " + a.rel(spin.Pos)}}
		if d, ok := a.sup.At("simsleep", spin.Pos); ok {
			t.Sanctioned = true
			t.Reason = d.Reason
		}
		fi.sig.Spin = t
		a.export(fi)
	}
	return nil
}

func (a *pkgAnalysis) enclosing(pos token.Pos) *fnInfo {
	for _, fi := range a.fns {
		if pos >= fi.decl.Pos() && pos <= fi.decl.End() {
			return fi
		}
	}
	return nil
}

func (a *pkgAnalysis) export(fi *fnInfo) {
	s := fi.sig
	if s.Wallclock == nil && s.GlobalRand == nil && s.Yields &&
		len(s.Escapes) == 0 && s.Clamp == nil && s.Spin == nil {
		// The all-defaults signature carries no information; dependents
		// assume exactly this shape for factless objects.
		return
	}
	sig := s // copy; facts are shared read-only after freeze
	a.pass.ExportObjectFact(fi.obj, &sig)
}

// display renders a function as it should appear in a call chain:
// pkgname.Func, pkgname.(T).M, or pkgname.(*T).M.
func display(fn *types.Func) string {
	key, _, ok := analysis.ObjectKey(fn)
	if !ok {
		return fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + key
	}
	return key
}

// seed performs the single-function scan: direct taint sources,
// static call sites, yield seeds, escape seeds, and the clamp shape.
func (a *pkgAnalysis) seed(fi *fnInfo) {
	fi.sig.Yields = false
	body := fi.decl.Body

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			a.seedTaint(fi, n)
		case *ast.CallExpr:
			if callee := analysis.StaticCallee(a.pass.TypesInfo, n); callee != nil {
				if _, seen := find(fi.calls, callee); !seen {
					fi.calls = append(fi.calls, callSite{callee: callee, call: n, pos: n.Pos()})
				}
			}
		}
		return true
	})

	fi.seedYields = a.seedYields(fi)
	fi.sig.Yields = fi.seedYields
	a.seedEscapes(fi)
	fi.sig.Clamp = clampShape(a.pass, fi.decl)
}

func find(calls []callSite, callee *types.Func) (callSite, bool) {
	for _, c := range calls {
		if c.callee == callee {
			return c, true
		}
	}
	return callSite{}, false
}

// seedTaint records direct wallclock / globalrand sources. A bare
// reference (time.Now passed as a value) taints like a call: the
// receiver can invoke it at will.
func (a *pkgAnalysis) seedTaint(fi *fnInfo, sel *ast.SelectorExpr) {
	if name, ok := a.pass.PkgLevelRef(sel, "time"); ok && WallclockSources[name] {
		a.acquireSource(fi, KindWallclock, "time."+name, sel.Pos())
		return
	}
	for path, names := range GlobalRandSources {
		if name, ok := a.pass.PkgLevelRef(sel, path); ok && names[name] {
			a.acquireSource(fi, KindGlobalRand, "rand."+name, sel.Pos())
			return
		}
	}
}

// acquireSource installs a direct-source taint, preferring
// unsanctioned sources over sanctioned ones (the diagnostic-relevant
// kind must win the representative slot).
func (a *pkgAnalysis) acquireSource(fi *fnInfo, kind, source string, pos token.Pos) {
	t := &Trace{Chain: []string{display(fi.obj), source + " at " + a.rel(pos)}}
	if d, ok := a.sup.At(kind, pos); ok {
		t.Sanctioned = true
		t.Reason = d.Reason
	} else if kind == KindWallclock && a.exempt {
		t.Sanctioned = true
		t.Reason = "cmd/ UX allowlist"
	}
	if prev := fi.sig.taint(kind); prev != nil && !(prev.Sanctioned && !t.Sanctioned) {
		return // keep the existing, equally-or-more-alarming taint
	}
	fi.sig.setTaint(kind, t)
}

// calleeSig resolves the signature of a callee: same-package functions
// from the in-progress analysis, imported ones from facts.
func (a *pkgAnalysis) calleeSig(callee *types.Func) (*Sig, bool) {
	if fi, ok := a.byObj[callee]; ok {
		return &fi.sig, true
	}
	var sig Sig
	if a.pass.ImportObjectFact(callee, &sig) {
		return &sig, true
	}
	return nil, false
}

// fixpoint propagates taints, yields, and escapes through the
// package's static call graph until nothing changes. Functions are
// visited in source order and callees in call-site order, so the
// representative chains are deterministic.
func (a *pkgAnalysis) fixpoint() {
	for changed := true; changed; {
		changed = false
		for _, fi := range a.fns {
			for _, cs := range fi.calls {
				csig, ok := a.calleeSig(cs.callee)
				if !ok {
					continue
				}
				for _, kind := range []string{KindWallclock, KindGlobalRand} {
					if a.propagateTaint(fi, cs, kind, csig.taint(kind)) {
						changed = true
					}
				}
				if a.propagateEscape(fi, cs, csig) {
					changed = true
				}
			}
			if !fi.sig.Yields && a.yieldsNow(fi) {
				fi.sig.Yields = true
				changed = true
			}
		}
	}
}

// propagateTaint pulls a callee's taint up into the caller. An allow
// directive at the call site sanctions the caller's taint even when
// the source is unsanctioned — the caller has vouched for this use.
func (a *pkgAnalysis) propagateTaint(fi *fnInfo, cs callSite, kind string, from *Trace) bool {
	if from == nil {
		return false
	}
	t := &Trace{
		Sanctioned: from.Sanctioned,
		Reason:     from.Reason,
		Chain:      extend(display(fi.obj), from.Chain),
	}
	if d, ok := a.sup.At(kind, cs.pos); ok {
		t.Sanctioned = true
		t.Reason = d.Reason
	} else if kind == KindWallclock && a.exempt {
		t.Sanctioned = true
		t.Reason = "cmd/ UX allowlist"
	}
	prev := fi.sig.taint(kind)
	if prev != nil && !(prev.Sanctioned && !t.Sanctioned) {
		return false
	}
	fi.sig.setTaint(kind, t)
	return true
}

// extend prepends a hop to a chain, eliding the middle of chains that
// exceed maxChain.
func extend(hop string, chain []string) []string {
	out := make([]string, 0, len(chain)+1)
	out = append(out, hop)
	out = append(out, chain...)
	if len(out) > maxChain {
		head := out[:maxChain/2]
		tail := out[len(out)-maxChain/2:]
		out = append(append(append([]string{}, head...), "…"), tail...)
	}
	return out
}

// ChainString renders a chain for a diagnostic: "a → b → c".
func ChainString(chain []string) string {
	return strings.Join(chain, " → ")
}

// newRelposer renders positions relative to the module root (the
// nearest ancestor directory holding go.mod), so chains and the
// certificate are byte-stable across checkouts and loader modes.
func newRelposer(fset *token.FileSet, files []*ast.File) func(token.Pos) string {
	root := ""
	if len(files) > 0 {
		dir := filepath.Dir(fset.Position(files[0].Pos()).Filename)
		for d := dir; ; {
			if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
				root = d
				break
			}
			parent := filepath.Dir(d)
			if parent == d {
				break
			}
			d = parent
		}
	}
	return func(pos token.Pos) string {
		p := fset.Position(pos)
		name := p.Filename
		if root != "" {
			if r, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(r, "..") {
				name = r
			}
		}
		return filepath.ToSlash(name) + ":" + strconv.Itoa(p.Line)
	}
}
