package lint_test

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"politewifi/internal/lint"
)

// moduleRoot walks up from the working directory to the directory
// containing go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// TestRepoIsClean is the regression gate: politevet over the whole
// module, tests included, must report nothing at HEAD. Every
// sanctioned violation carries a reasoned //politevet:allow directive;
// a new finding here means either a real determinism hazard or a
// missing annotation.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	findings, err := lint.Run(moduleRoot(t), "./...")
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestPolitevetBinary builds cmd/politevet and holds the standalone
// driver to the exit codes CI relies on: 0 over a package whose only
// wallclock use carries a reasoned directive, 2 with the finding on
// stderr over a fixture with unsanctioned clock reads. It also pins
// the command line to its three flags.
func TestPolitevetBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and loads packages through go list")
	}
	root := moduleRoot(t)
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "politevet")

	build := exec.Command("go", "build", "-o", bin, "./cmd/politevet")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/politevet: %v\n%s", err, out)
	}

	// run returns politevet's exit status and stderr.
	run := func(args ...string) (int, string) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Dir = root
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		switch {
		case err == nil:
			return 0, stderr.String()
		case errors.As(err, &exit):
			return exit.ExitCode(), stderr.String()
		}
		t.Fatalf("politevet %v: %v", args, err)
		return 0, ""
	}
	cache := "-factcache=" + filepath.Join(tmp, "facts")

	if code, stderr := run(cache, "./internal/eventsim/"); code != 0 {
		t.Errorf("politevet over eventsim: exit %d, want 0\n%s", code, stderr)
	}

	fixture := "./internal/lint/wallclock/testdata/src/a"
	code, stderr := run(cache, fixture)
	if code != 2 {
		t.Errorf("politevet over %s: exit %d, want 2\n%s", fixture, code, stderr)
	}
	want := regexp.MustCompile(`(?m)wallclock/testdata/src/a/a\.go:8:\d+: time\.Now reads the wall clock.*\[wallclock\]$`)
	if !want.MatchString(stderr) {
		t.Errorf("politevet over %s: stderr lacks the a.go:8 time.Now finding\n%s", fixture, stderr)
	}

	code, usage := run("-h")
	if code != 0 {
		t.Errorf("politevet -h: exit %d, want 0", code)
	}
	var flags []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\w+)`).FindAllStringSubmatch(usage, -1) {
		flags = append(flags, m[1])
	}
	if got := strings.Join(flags, " "); got != "certify factcache workers" {
		t.Errorf("politevet -h lists flags %q, want \"certify factcache workers\"\n%s", got, usage)
	}
}
