package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// wantRE matches expected-diagnostic annotations in fixture files:
//
//	expr // want "substring or regexp matched against the message"
var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

// expectation is one `// want` annotation: a finding must appear at
// file:line with a message matching re.
type expectation struct {
	file string // absolute path
	line int
	re   *regexp.Regexp
	hit  bool
}

// parseExpectations collects the `// want` annotations of every .go file
// under dir, subdirectories included.
func parseExpectations(t *testing.T, dir string) []*expectation {
	t.Helper()
	var wants []*expectation
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, text := range strings.Split(string(src), "\n") {
			if m := wantRE.FindStringSubmatch(text); m != nil {
				re, err := regexp.Compile(m[1])
				if err != nil {
					return fmt.Errorf("%s:%d: bad want pattern %q: %v", path, i+1, m[1], err)
				}
				wants = append(wants, &expectation{file: path, line: i + 1, re: re})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// fixtureRoot holds one fixture tree per subtest of TestAnalyzersGolden;
// a tree may nest packages (xchain/inner exercises cross-package
// resolution).
const fixtureRoot = "testdata/src"

// fixtures caches one load of every fixture package. Type-checking the
// fixtures' dependencies from source is most of a load's cost, so the
// tests share it instead of loading fixtures one by one.
var fixtures struct {
	once sync.Once
	pkgs []*Package
	err  error
}

// loadFixtures returns every package under fixtureRoot, found by walking
// the directory and loaded together.
func loadFixtures(t *testing.T) []*Package {
	t.Helper()
	fixtures.once.Do(func() {
		var patterns []string
		fixtures.err = filepath.WalkDir(fixtureRoot, func(path string, d fs.DirEntry, err error) error {
			if err == nil && d.IsDir() && path != fixtureRoot {
				patterns = append(patterns, "./"+path)
			}
			return err
		})
		if fixtures.err != nil {
			return
		}
		fixtures.pkgs, fixtures.err = load(patterns)
		if fixtures.err == nil && len(fixtures.pkgs) != len(patterns) {
			fixtures.err = fmt.Errorf("loaded %d packages from %d fixture directories", len(fixtures.pkgs), len(patterns))
		}
	})
	if fixtures.err != nil {
		t.Fatalf("loading fixtures: %v", fixtures.err)
	}
	return fixtures.pkgs
}

// fixturePkg returns the fixture package in fixtureRoot/dir.
func fixturePkg(t *testing.T, dir string) *Package {
	t.Helper()
	for _, p := range loadFixtures(t) {
		if p.Path == fixturePrefix+"src/"+dir {
			return p
		}
	}
	t.Fatalf("no fixture package %s", dir)
	return nil
}

// TestAnalyzersGolden runs the full suite once over every fixture package
// and requires the findings to match the `// want` annotations exactly:
// every annotation hit, no unexpected findings, and annotated-but-allowed
// lines (the //parmavet:allow cases) silent. Running all analyzers over
// every fixture also asserts the analyzers do not fire on each other's
// fixtures.
func TestAnalyzersGolden(t *testing.T) {
	findings := runAnalyzers(loadFixtures(t))
	root, err := filepath.Abs(fixtureRoot)
	if err != nil {
		t.Fatal(err)
	}
	trees, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, tree := range trees {
		dir := filepath.Join(root, tree.Name())
		t.Run(tree.Name(), func(t *testing.T) {
			wants := parseExpectations(t, dir)
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no // want annotations", tree.Name())
			}
			for _, f := range findings {
				if !strings.HasPrefix(f.File, dir+string(filepath.Separator)) {
					continue
				}
				matched := false
				for _, w := range wants {
					if !w.hit && w.file == f.File && w.line == f.Line && w.re.MatchString(f.Message) {
						w.hit = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("%s:%d: expected a finding matching %q, got none", w.file, w.line, w.re)
				}
			}
		})
	}
}

// TestSuppressionScope pins the //parmavet:allow contract: the comment
// silences only the named analyzer, on its own line and the next. The
// poolsize fixture's sanctioned spawn (line 50) is the allowed site.
func TestSuppressionScope(t *testing.T) {
	pkgs := []*Package{fixturePkg(t, "poolsize")}
	const allowedLine = 50
	findings := runAnalyzers(pkgs)
	for _, f := range findings {
		if f.Line == allowedLine {
			t.Errorf("allow-annotated line still reported: %s", f)
		}
	}
	// The raw analyzer output, before suppression, must hold the finding
	// the allow comment silences.
	var raw []Finding
	pass := &Pass{Analyzer: poolsizeAnalyzer, Pkg: pkgs[0], findings: &raw}
	poolsizeAnalyzer.Run(pass)
	if !slices.ContainsFunc(raw, func(f Finding) bool { return f.Line == allowedLine }) {
		t.Errorf("raw poolsize output has no finding on line %d to suppress: %v", allowedLine, raw)
	}
	if len(raw) <= len(findingsByAnalyzer(findings, "poolsize")) {
		t.Errorf("suppression removed nothing: %d raw vs %d surviving", len(raw), len(findings))
	}
}

func findingsByAnalyzer(fs []Finding, name string) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Analyzer == name {
			out = append(out, f)
		}
	}
	return out
}

// TestRunExitCodes covers the command-line contract: findings exit 1,
// usage and loader failures exit 2, -list and a justified -allows
// inventory exit 0.
func TestRunExitCodes(t *testing.T) {
	if got := run([]string{"-list"}); got != 0 {
		t.Errorf("-list exited %d, want 0", got)
	}
	if got := run([]string{"-nosuch"}); got != 2 {
		t.Errorf("unknown flag exited %d, want 2", got)
	}
	if got := run([]string{"./testdata/src/poolsize"}); got != 1 {
		t.Errorf("fixture run exited %d, want 1", got)
	}
	if got := run([]string{"-allows", "./testdata/src/locksend"}); got != 0 {
		t.Errorf("-allows over justified fixture exited %d, want 0", got)
	}
}

// TestLocksendLexicalMiss pins the blind spot the call-graph engine
// closed: with a nil Program the analyzer degrades to its pre-upgrade
// lexical behavior, and the transitive fixture shapes (a Barrier wrapped
// in a one-line helper, called under a lock) go unreported. With the
// program they are all caught.
func TestLocksendLexicalMiss(t *testing.T) {
	pkgs := []*Package{fixturePkg(t, "locksend")}
	var lexical []Finding
	locksendAnalyzer.Run(&Pass{Analyzer: locksendAnalyzer, Pkg: pkgs[0], Prog: nil, findings: &lexical})
	if len(lexical) == 0 {
		t.Fatal("lexical mode reported nothing; the direct cases should still fire")
	}
	for _, f := range lexical {
		if strings.Contains(f.Message, "transitively") {
			t.Errorf("lexical mode reported a transitive finding it cannot see: %s", f)
		}
	}

	prog := buildProgram(pkgs)
	var full []Finding
	locksendAnalyzer.Run(&Pass{Analyzer: locksendAnalyzer, Pkg: pkgs[0], Prog: prog, findings: &full})
	transitive := 0
	for _, f := range full {
		if strings.Contains(f.Message, "transitively") {
			transitive++
		}
	}
	// hiddenDeadlock, deepDeadlock, allowedTransitive (suppression happens
	// later, in runAnalyzers) — and nothing for spawnIsClean/copyThenCall.
	if transitive != 3 {
		t.Errorf("interprocedural mode reported %d transitive findings, want 3:\n%v", transitive, full)
	}
	if len(full) <= len(lexical) {
		t.Errorf("interprocedural mode found %d findings, lexical %d; expected strictly more", len(full), len(lexical))
	}
}

// TestSuiteCleanOnSelf pins that parmavet analyzes its own source
// cleanly: the cmd/parmavet package is part of every `./...` run (and of
// make lint), so a finding here would fail CI with no way to tell it
// apart from a regression in the analyzed tree.
func TestSuiteCleanOnSelf(t *testing.T) {
	pkgs, err := load([]string{"."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "parma/cmd/parmavet" {
		t.Fatalf("expected to load exactly parma/cmd/parmavet, got %d package(s)", len(pkgs))
	}
	for _, f := range runAnalyzers(pkgs) {
		t.Errorf("parmavet is not clean on itself: %s", f)
	}
}

// TestAllowsInventory covers collectAllows: sites are found with their
// justifications, sorted by position, and a site without a "--" clause
// is reported as unjustified.
func TestAllowsInventory(t *testing.T) {
	sites := collectAllows([]*Package{fixturePkg(t, "locksend")})
	if len(sites) < 2 {
		t.Fatalf("want at least 2 allow sites in the locksend fixture, got %d", len(sites))
	}
	for i, s := range sites {
		if len(s.Analyzers) == 0 || s.Analyzers[0] != "locksend" {
			t.Errorf("site %d: analyzers = %v, want [locksend]", i, s.Analyzers)
		}
		if s.Justification == "" {
			t.Errorf("site %s:%d has no justification", s.File, s.Line)
		}
		if i > 0 && (sites[i-1].File > s.File || (sites[i-1].File == s.File && sites[i-1].Line > s.Line)) {
			t.Errorf("sites out of order: %v before %v", sites[i-1], s)
		}
	}
}

// TestAllowsUnknownKey pins that the ledger rejects an allow key naming
// no analyzer: such a comment suppresses nothing, so counting it as a
// justified site would hide the finding it was meant to excuse.
func TestAllowsUnknownKey(t *testing.T) {
	sites := []AllowSite{
		{File: "a.go", Line: 3, Analyzers: []string{"spanend"}, Justification: "ended by the caller"},
		{File: "a.go", Line: 9, Analyzers: []string{"spanend", "ctxspan"}, Justification: "retired key"},
	}
	var out bytes.Buffer
	if got := runAllows(&out, sites); got != 1 {
		t.Errorf("-allows with an unknown key exited %d, want 1", got)
	}
	if !strings.Contains(out.String(), `a.go:9: unknown analyzer "ctxspan"`) {
		t.Errorf("inventory does not name the unknown key:\n%s", out.String())
	}
	out.Reset()
	if got := runAllows(&out, sites[:1]); got != 0 {
		t.Errorf("-allows over known, justified keys exited %d, want 0:\n%s", got, out.String())
	}
}

// TestScopeListsNameRealPackages pins that every package an analyzer is
// scoped to exists in the module: a renamed package would otherwise drop
// out of the analyzer's scope with no error.
func TestScopeListsNameRealPackages(t *testing.T) {
	out, err := exec.Command("go", "list", "parma/...").Output()
	if err != nil {
		t.Fatalf("go list parma/...: %v", err)
	}
	module := strings.Fields(string(out))
	for _, a := range analyzers() {
		for _, path := range a.Packages {
			if !slices.Contains(module, path) {
				t.Errorf("%s is scoped to %s, which is not a package of the module", a.Name, path)
			}
		}
	}
}

// TestSortFindingsDeterministic pins the output ordering contract: file,
// then line, then column, then analyzer, then message.
func TestSortFindingsDeterministic(t *testing.T) {
	want := []Finding{
		{File: "a.go", Line: 1, Col: 1, Analyzer: "locksend", Message: "x"},
		{File: "a.go", Line: 1, Col: 1, Analyzer: "spanend", Message: "a"},
		{File: "a.go", Line: 1, Col: 1, Analyzer: "spanend", Message: "b"},
		{File: "a.go", Line: 2, Col: 9, Analyzer: "poolsize", Message: "y"},
		{File: "b.go", Line: 1, Col: 2, Analyzer: "poolsize", Message: "z"},
	}
	got := make([]Finding, len(want))
	for i := range want {
		got[i] = want[len(want)-1-i]
	}
	sortFindings(got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestFindingString pins the diagnostic format tools and editors parse.
func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "spanend", File: "a/b.go", Line: 3, Col: 7, Message: "m"}
	if got, want := f.String(), "a/b.go:3:7: spanend: m"; got != want {
		t.Errorf("Finding.String() = %q, want %q", got, want)
	}
}

func ExampleFinding() {
	fmt.Println(Finding{Analyzer: "poolsize", File: "x.go", Line: 1, Col: 2, Message: "raw goroutine fan-out"})
	// Output: x.go:1:2: poolsize: raw goroutine fan-out
}
