package main

// The -allows mode: instead of running analyzers, inventory every
// `//parmavet:allow` suppression in the loaded packages together with its
// `--`-separated justification. Suppressions are load-bearing — each one
// is a finding the suite would otherwise report — so the exit status
// enforces that none goes unjustified, and that none names a key no
// analyzer answers to (a typo, or a retired analyzer's name, suppresses
// nothing while looking like it does). `make lint` runs it over the tree.

import (
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
)

// AllowSite is one //parmavet:allow comment.
type AllowSite struct {
	File          string
	Line          int
	Analyzers     []string
	Justification string // empty when the comment has no "--" clause
}

// collectAllows gathers every allow site in pkgs, sorted by
// file/line.
func collectAllows(pkgs []*Package) []AllowSite {
	var sites []AllowSite
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := allowRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					var names []string
					for _, name := range strings.Split(m[1], ",") {
						names = append(names, strings.TrimSpace(name))
					}
					just := ""
					if _, after, found := strings.Cut(c.Text, "--"); found {
						just = strings.TrimSpace(after)
					}
					pos := pkg.Fset.Position(c.Pos())
					sites = append(sites, AllowSite{
						File:          pos.Filename,
						Line:          pos.Line,
						Analyzers:     names,
						Justification: just,
					})
				}
			}
		}
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].File != sites[j].File {
			return sites[i].File < sites[j].File
		}
		return sites[i].Line < sites[j].Line
	})
	return sites
}

// runAllows prints the suppression inventory to w and returns the exit
// code: 0 when every site carries a justification and names only
// analyzers of the suite, 1 otherwise.
func runAllows(w io.Writer, sites []AllowSite) int {
	var known []string
	for _, a := range analyzers() {
		known = append(known, a.Name)
	}
	missing, unknown := 0, 0
	for _, s := range sites {
		just := s.Justification
		if just == "" {
			just = "(no justification)"
			missing++
		}
		fmt.Fprintf(w, "%s:%d: %s: %s\n", s.File, s.Line, strings.Join(s.Analyzers, ","), just)
		for _, name := range s.Analyzers {
			if !slices.Contains(known, name) {
				fmt.Fprintf(w, "%s:%d: unknown analyzer %q: this key suppresses nothing (see parmavet -list)\n", s.File, s.Line, name)
				unknown++
			}
		}
	}
	fmt.Fprintf(os.Stderr, "parmavet: %d allow site(s), %d without justification, %d unknown analyzer key(s)\n", len(sites), missing, unknown)
	if missing > 0 || unknown > 0 {
		return 1
	}
	return 0
}
