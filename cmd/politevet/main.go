// Command politevet is the repository's determinism and
// 802.11-arithmetic vet tool. It enforces, mechanically, the
// invariants the bit-identical wardrive census rests on:
//
//	wallclock    no time.Now/Sleep/... outside cmd/ UX paths, even through helpers
//	globalrand   no global math/rand draws — direct or transitive — and no shared *rand.Rand
//	sortedrange  no emitting from inside a range-over-map loop
//	durwrap      no unguarded unsigned narrowing/subtraction of durations
//	simsleep     no busy-wait polling without an event-queue yield
//	bufreuse     no pooled buffer escaping its stop, even via a callee's parameter
//	unusedallow  no stale //politevet:allow directives
//
// The wallclock, globalrand, simsleep, and bufreuse checks are
// interprocedural: a purity fact pass (DESIGN.md §5j) propagates
// per-function signatures bottom-up across package boundaries, and
// violations report the full call chain (world.Run → rt.poll →
// time.Now). Sanctioned exceptions carry a
// //politevet:allow <analyzer>(<reason>) directive; the reason is
// mandatory. See DESIGN.md §5e.
//
// Usage:
//
//	politevet ./...                    report findings, test files included
//	politevet -certify ./internal/...  print the determinism certificate
//
// politevet loads the packages itself through `go list`. It exits 0
// on a clean tree, 2 when it reports findings (or is given no
// packages), and 1 when a package fails to load or type-check. CI
// runs the first form as the diagnostics gate and diffs the second
// against CERTIFICATE.md.
package main

import (
	"flag"
	"fmt"
	"os"

	"politewifi/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("politevet", flag.ExitOnError)
	fs.Usage = usage(fs)
	certifyFlag := fs.Bool("certify", false, "print the determinism certificate for the given packages and exit; diff against CERTIFICATE.md in CI")
	workersFlag := fs.Int("workers", 0, "bound parallel type-checking and analysis (0 = GOMAXPROCS); the certificate is byte-identical at any setting")
	factcacheFlag := fs.String("factcache", "", `fact cache directory ("" = per-user default, "off" = disable)`)
	fs.Parse(os.Args[1:])

	args := fs.Args()
	if len(args) == 0 {
		fs.Usage()
		return 2
	}

	opts := lint.Options{
		Patterns:  args,
		Workers:   *workersFlag,
		FactCache: *factcacheFlag,
	}
	if *certifyFlag {
		cert, err := lint.Certify(opts)
		if err != nil {
			return fail(err)
		}
		fmt.Print(cert)
		return 0
	}

	opts.Tests = true
	res, err := lint.RunOpts(opts)
	if err != nil {
		return fail(err)
	}

	exit := 0
	for _, target := range res.Graph.Targets {
		pkg, err := res.Graph.Package(target)
		if err != nil {
			return fail(err)
		}
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "politevet: %s: typecheck: %v\n", pkg.ImportPath, terr)
			exit = 1
		}
	}
	for _, f := range res.Findings {
		fmt.Fprintln(os.Stderr, f)
		exit = 2
	}
	return exit
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "politevet: %v\n", err)
	return 1
}

func usage(fs *flag.FlagSet) func() {
	return func() {
		fmt.Fprintf(fs.Output(), `usage:
  politevet [flags] ./...                      report findings (exit 2 if any)
  politevet -certify ./internal/...            print the determinism certificate

politevet enforces the simulator's determinism invariants over the
given packages and their tests; see DESIGN.md §5e and §5j. Suppress a
sanctioned finding with a trailing //politevet:allow <analyzer>(<reason>)
directive — the reason is mandatory. Sanctioned impurity stays visible
in the certificate (CERTIFICATE.md), which CI regenerates and diffs.

flags:
`)
		fs.PrintDefaults()
	}
}
