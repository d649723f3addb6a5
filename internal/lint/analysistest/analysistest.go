// Package analysistest runs a politevet analyzer over a fixture
// package and checks its findings against // want comments, in the
// style of golang.org/x/tools/go/analysis/analysistest (which this
// repository does not vendor).
//
// A fixture lives under the analyzer's testdata/src/<name> directory
// and marks expected findings with trailing comments:
//
//	time.Now() // want "reads the wall clock"
//
// Each quoted string is a regular expression that must match one
// finding reported on that line; findings with no matching want, and
// wants with no matching finding, fail the test. Because fixtures run
// through the same driver as politevet proper, //politevet:allow
// directives suppress findings in fixtures too — a line carrying a
// reasoned directive simply expects nothing.
package analysistest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"politewifi/internal/lint"
	"politewifi/internal/lint/analysis"
	"politewifi/internal/lint/load"
)

// wantRE matches a want clause anywhere in a comment (so it can
// trail a //politevet:allow directive on the same line) and captures
// the run of quoted patterns ending the comment. Patterns are Go
// string literals: interpreted ("a \\(b\\)") or raw (`a \(b\)`) —
// raw strings keep regexp escapes single, so prefer them for
// patterns heavy with metacharacters.
var wantRE = regexp.MustCompile("//\\s*want\\s+((?:(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)\\s*)+)$")

// Run loads testdata/src/<fixture> relative to the calling test's
// package directory and checks the analyzer's findings against the
// fixture's want comments.
func Run(t *testing.T, a *analysis.Analyzer, fixture string) {
	t.Helper()
	RunAnalyzers(t, fixture, a)
}

// RunAnalyzers is Run with several analyzers over one single-package
// fixture — findings from all of them check against the same want
// comments. The purity fact pass always runs first (inside the
// driver), so same-package transitive findings appear even here.
func RunAnalyzers(t *testing.T, fixture string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	pattern := "./testdata/src/" + fixture
	g, err := load.Load(load.Config{}, pattern)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pattern, err)
	}
	if len(g.Targets) != 1 {
		t.Fatalf("fixture %s loaded %d packages, want 1", pattern, len(g.Targets))
	}
	pkg, err := g.Package(g.Targets[0])
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pattern, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s: typecheck: %v", pattern, terr)
	}

	findings, err := lint.RunPackage(pkg, analyzers, nil)
	if err != nil {
		t.Fatalf("running on %s: %v", pattern, err)
	}
	check(t, []*load.Package{pkg}, findings)
}

// RunPatterns runs the full interprocedural driver over explicit
// package patterns (testdata packages must be named explicitly —
// `...` wildcards skip testdata directories) and checks findings in
// every target package against its want comments. This is how the
// cross-package taint fixtures run: facts propagate from leaf
// packages into the targets exactly as in a real politevet run. The
// fact cache is off — fixtures must never leak state between runs.
func RunPatterns(t *testing.T, analyzers []*analysis.Analyzer, patterns ...string) {
	t.Helper()
	res, err := lint.RunOpts(lint.Options{
		Patterns:  patterns,
		FactCache: "off",
		Analyzers: analyzers,
	})
	if err != nil {
		t.Fatalf("running driver over %v: %v", patterns, err)
	}
	var pkgs []*load.Package
	for _, target := range res.Graph.Targets {
		pkg, err := res.Graph.Package(target)
		if err != nil {
			t.Fatalf("loading %s: %v", target, err)
		}
		for _, terr := range pkg.TypeErrors {
			t.Errorf("fixture %s: typecheck: %v", target, terr)
		}
		pkgs = append(pkgs, pkg)
	}
	check(t, pkgs, res.Findings)
}

// check matches findings against the want comments of every file in
// pkgs: each want must be matched by a finding on its line, and every
// finding must be wanted.
func check(t *testing.T, pkgs []*load.Package, findings []lint.Finding) {
	t.Helper()
	got := make(map[loc][]lint.Finding)
	for _, f := range findings {
		l := loc{f.Pos.Filename, f.Pos.Line}
		got[l] = append(got[l], f)
	}

	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					p := pkg.Fset.Position(c.Pos())
					l := loc{p.Filename, p.Line}
					for _, pat := range parseWants(t, p.String(), m[1]) {
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v", p, pat, err)
						}
						if !consume(got, l, re) {
							t.Errorf("%s: no finding matching %q (have %s)", p, pat, messages(got[l]))
						}
					}
				}
			}
		}
	}

	for _, fs := range got {
		for _, f := range fs {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}

type loc struct {
	file string
	line int
}

// consume removes and reports the first finding at l whose message
// matches re.
func consume(got map[loc][]lint.Finding, l loc, re *regexp.Regexp) bool {
	fs := got[l]
	for i, f := range fs {
		if re.MatchString(f.Message) {
			got[l] = append(fs[:i:i], fs[i+1:]...)
			if len(got[l]) == 0 {
				delete(got, l)
			}
			return true
		}
	}
	return false
}

// parseWants splits `"re1" "re2"` into its quoted patterns. Both
// interpreted and raw (backquoted) literals are accepted; raw
// patterns reach the regexp engine byte-for-byte.
func parseWants(t *testing.T, pos, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := 1
			for end < len(s) && s[end] != '"' {
				if s[end] == '\\' {
					end++
				}
				end++
			}
			if end >= len(s) {
				t.Fatalf("%s: unterminated want pattern in %q", pos, s)
			}
			pat, err := strconv.Unquote(s[:end+1])
			if err != nil {
				t.Fatalf("%s: bad want pattern %q: %v", pos, s[:end+1], err)
			}
			out = append(out, pat)
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				t.Fatalf("%s: unterminated want pattern in %q", pos, s)
			}
			out = append(out, s[1:1+end])
			s = strings.TrimSpace(s[end+2:])
		default:
			t.Fatalf("%s: malformed want comment near %q", pos, s)
		}
	}
	return out
}

func messages(fs []lint.Finding) string {
	if len(fs) == 0 {
		return "none"
	}
	var msgs []string
	for _, f := range fs {
		msgs = append(msgs, fmt.Sprintf("%q [%s]", f.Message, f.Analyzer))
	}
	return strings.Join(msgs, ", ")
}
