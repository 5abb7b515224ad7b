// Command parmavet is Parma's project-specific static-analysis suite. It
// enforces invariants no generic linter knows about:
//
//	spanend      obs.StartSpan/StartOn results must reach End on every path
//	locksend     no blocking MPI call — direct or through any resolved call
//	             chain — while a sync.Mutex/RWMutex is held
//	poolsize     no raw goroutine fan-out loops in the compute packages;
//	             every worker loop goes through sched.Run
//	determinism  no map-iteration-ordered results, unseeded math/rand, or
//	             wall-clock values in the deterministic packages
//	ctxflow      a held context.Context must be threaded: no context-blind
//	             span starts (obs.StartSpan/StartOn), no ctx-blind calls
//	             when a ctx-accepting sibling exists, no context.Background/
//	             TODO on the request path
//	atomicmix    no struct field accessed both via sync/atomic and plainly
//	             anywhere in the program
//
// The interprocedural checks run over a whole-program call graph built
// from the loaded packages (see callgraph.go): static and method calls
// resolve across packages, and a blocks-on-MPI summary propagates
// bottom-up to a fixpoint. Function values and interface calls are
// approximated conservatively and documented in docs/static-analysis.md.
//
// Usage:
//
//	parmavet [-list] [-allows] [packages...]
//
// Packages default to ./... . Findings print as file:line:col diagnostics,
// deterministically ordered by file/line/col/analyzer; the exit status is
// 1 when findings exist, 2 on loading or usage errors, 0 on a clean tree.
// Suppress an intentional finding with a `//parmavet:allow <analyzer>`
// comment on the same line or the line above, with a `--`-separated
// justification. -allows inventories every suppression site with its
// justification and exits 1 when any site has none or names no analyzer
// of the suite; -list prints the analyzer names those comments use.
//
// The implementation is dependency-free: packages are loaded via `go list
// -json`, parsed with go/parser, and type-checked with go/types, so the
// module's go.mod stays empty. See docs/static-analysis.md.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("parmavet", flag.ContinueOnError)
	list := fs.Bool("list", false, "list analyzers and exit")
	allows := fs.Bool("allows", false, "inventory //parmavet:allow sites instead of running analyzers; exit 1 if any lacks a justification or names no analyzer")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analyzers() {
			fmt.Printf("%-11s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parmavet: %v\n", err)
		return 2
	}
	if len(pkgs) == 0 {
		fmt.Fprintln(os.Stderr, "parmavet: no packages matched")
		return 2
	}
	if *allows {
		return runAllows(os.Stdout, collectAllows(pkgs))
	}

	findings := runAnalyzers(pkgs)
	for _, f := range findings {
		fmt.Println(f.String())
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "parmavet: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		return 1
	}
	return 0
}
