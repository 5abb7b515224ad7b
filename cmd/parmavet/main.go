// Command parmavet is Parma's project-specific static-analysis suite. It
// enforces invariants no generic linter knows about:
//
//	spanend      obs.StartSpan/StartOn results must reach End on every path
//	mpierr       errors from mpi.Comm/World calls may not be discarded
//	floateq      no ==/!= on floats in the numerics packages
//	locksend     no blocking MPI call — direct or through any resolved call
//	             chain — while a sync.Mutex/RWMutex is held
//	httptimeout  http.Server literals must set ReadHeaderTimeout (or ReadTimeout)
//	poolsize     no raw goroutine fan-out loops in the compute packages;
//	             every worker loop goes through sched.Run
//	retrybound   retry loops that sleep must also terminate
//	ctxspan      no context-blind span starts (obs.StartSpan/StartOn) in the
//	             request-path packages while a context.Context is in scope
//	determinism  no map-iteration-ordered results, unseeded math/rand, or
//	             wall-clock values in the deterministic packages
//	ctxflow      a held context.Context must be threaded: no ctx-blind calls
//	             when a ctx-accepting sibling exists, no context.Background/
//	             TODO on the request path
//	atomicmix    no struct field accessed both via sync/atomic and plainly
//	             anywhere in the program
//	densealloc   no CSR.Dense() densification in the serve-path packages;
//	             the sparse recovery path must stay on the CSR kernels
//
// The interprocedural checks run over a whole-program call graph built
// from the loaded packages (see callgraph.go): static and method calls
// resolve across packages, and per-function summaries (blocks-on-MPI,
// accepts-ctx, ctx sibling, order-sensitive iteration) propagate
// bottom-up to a fixpoint. Function values and interface calls are
// approximated conservatively and documented in docs/static-analysis.md.
//
// Usage:
//
//	parmavet [-json] [-run spanend,mpierr] [-allows] [packages...]
//
// Packages default to ./... . Findings print as file:line:col diagnostics
// (or a JSON array with -json), deterministically ordered by
// file/line/col/analyzer; the exit status is 1 when findings exist, 2 on
// loading or usage errors, 0 on a clean tree. Suppress an intentional
// finding with a `//parmavet:allow <analyzer>` comment on the same line or
// the line above, with a `--`-separated justification. -allows inventories
// every suppression site with its justification (exit 1 when any site has
// none), so the allow list stays auditable in CI artifacts.
//
// The implementation is dependency-free: packages are loaded via `go list
// -json`, parsed with go/parser, and type-checked with go/types, so the
// module's go.mod stays empty. See docs/static-analysis.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("parmavet", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	only := fs.String("run", "", "comma-separated analyzer subset (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	allows := fs.Bool("allows", false, "inventory //parmavet:allow sites instead of running analyzers; exit 1 if any lacks a justification")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	suite := analyzers()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-11s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	selected := suite
	if *only != "" {
		byName := map[string]*Analyzer{}
		for _, a := range suite {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*only, ",") {
			a := byName[strings.TrimSpace(name)]
			if a == nil {
				fmt.Fprintf(os.Stderr, "parmavet: unknown analyzer %q\n", name)
				return 2
			}
			selected = append(selected, a)
		}
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
		return runAllows(pkgs, *jsonOut)
	}

	findings := runAnalyzers(pkgs, selected)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "parmavet: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Println(f.String())
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "parmavet: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		}
		return 1
	}
	return 0
}
