// Command powervet is the repo's determinism and hot-path linter: it
// runs the internal/analysis suite (detrange, simclock, pooluse,
// resultorder — see that package's documentation for what each proves)
// over the simulation-path packages and exits non-zero on any
// unsuppressed finding. CI runs it as a hard gate.
//
// Usage:
//
//	go run ./cmd/powervet ./...          # lint the whole module
//	go run ./cmd/powervet ./internal/sim # one package
//	go run ./cmd/powervet -list          # describe the analyzers
//	go run ./cmd/powervet -v ./...       # also list justified suppressions
//
// Packages outside the simulation path (benchmark, excluded internal
// packages such as serve) are skipped; the skip reasons are part of
// internal/analysis.ExcludedPackages and printed under -v. A finding is
// suppressed in source with a `//powervet:<directive> <justification>`
// comment on or directly above the flagged line; the justification is
// mandatory and suppressed sites are counted in the summary, so the
// tree cannot accumulate unexplained escapes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	listFlag := flag.Bool("list", false, "describe the analyzers and exit")
	verbose := flag.Bool("v", false, "list skipped packages and justified suppressions")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: powervet [-list] [-v] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listFlag {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n%13ssuppress with //powervet:%s <reason>\n", a.Name, a.Doc, "", a.Directive)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.GoList(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	loader := analysis.NewLoader()
	var findings, suppressed int
	for _, lp := range pkgs {
		analyzers := analysis.AnalyzersFor(lp.ImportPath)
		if len(analyzers) == 0 {
			if *verbose {
				fmt.Printf("# skip %s%s\n", lp.ImportPath, skipReason(lp.ImportPath))
			}
			continue
		}
		pkg, err := loader.Load(lp.ImportPath, lp.Dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		for _, a := range analyzers {
			for _, d := range analysis.Run(a, pkg) {
				if d.Suppressed {
					suppressed++
					if *verbose {
						fmt.Printf("# suppressed %s: %s — justification: %s\n", d.Analyzer, d.String(), d.Reason)
					}
					continue
				}
				findings++
				fmt.Println(d.String())
			}
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "powervet: %d finding(s)\n", findings)
		os.Exit(1)
	}
	if *verbose {
		fmt.Printf("# powervet clean: %d package(s), %d justified suppression(s)\n", len(pkgs), suppressed)
	}
}

// skipReason renders the documented exclusion reason for an internal
// package, or a generic note for everything else out of scope.
func skipReason(importPath string) string {
	if rel, ok := strings.CutPrefix(importPath, "repro/internal/"); ok {
		if reason, ok := analysis.ExcludedPackages[rel]; ok {
			return " (excluded: " + reason + ")"
		}
	}
	return " (not a simulation-path package)"
}
