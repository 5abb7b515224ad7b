package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRE matches expected-diagnostic annotations in fixture files:
//
//	expr // want "substring or regexp matched against the message"
var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

// expectation is one `// want` annotation: a finding must appear at
// file:line with a message matching re.
type expectation struct {
	file string // base name
	line int
	re   *regexp.Regexp
	hit  bool
}

func parseExpectations(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if m := wantRE.FindStringSubmatch(sc.Text()); m != nil {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", e.Name(), line, m[1], err)
				}
				wants = append(wants, &expectation{file: e.Name(), line: line, re: re})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return wants
}

// goldenCases lists every fixture entry: the subtest name and the
// fixture directories loaded together (multi-directory entries exercise
// cross-package resolution).
var goldenCases = []struct {
	name string
	dirs []string
}{
	{"spanend", []string{"spanend"}},
	{"mpierr", []string{"mpierr"}},
	{"floateq", []string{"floateq"}},
	{"locksend", []string{"locksend"}},
	{"httptimeout", []string{"httptimeout"}},
	{"poolsize", []string{"poolsize"}},
	{"retrybound", []string{"retrybound"}},
	{"ctxspan", []string{"ctxspan"}},
	{"determinism", []string{"determinism"}},
	{"ctxflow", []string{"ctxflow"}},
	{"atomicmix", []string{"atomicmix"}},
	{"densealloc", []string{"densealloc"}},
	{"xchain", []string{"xchain", "xchain/inner"}},
}

// TestAnalyzersGolden runs the full suite over each fixture entry and
// requires the findings to match the `// want` annotations exactly: every
// annotation hit, no unexpected findings, and annotated-but-allowed lines
// (the //parmavet:allow cases) silent. Running all analyzers over every
// fixture also asserts the analyzers do not fire on each other's fixtures.
func TestAnalyzersGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			var patterns []string
			for _, d := range tc.dirs {
				patterns = append(patterns, "./"+filepath.Join("testdata", "src", d))
			}
			pkgs, err := load(patterns)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			if len(pkgs) != len(tc.dirs) {
				t.Fatalf("loaded %d packages, want %d", len(pkgs), len(tc.dirs))
			}
			findings := runAnalyzers(pkgs, analyzers())
			var wants []*expectation
			for _, d := range tc.dirs {
				wants = append(wants, parseExpectations(t, filepath.Join("testdata", "src", d))...)
			}
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no // want annotations", tc.name)
			}
			for _, f := range findings {
				base := filepath.Base(f.File)
				matched := false
				for _, w := range wants {
					if !w.hit && w.file == base && w.line == f.Line && w.re.MatchString(f.Message) {
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
// silences only the named analyzer, on its own line and the next.
func TestSuppressionScope(t *testing.T) {
	pkgs, err := load([]string{"./testdata/src/floateq"})
	if err != nil {
		t.Fatal(err)
	}
	findings := runAnalyzers(pkgs, analyzers())
	for _, f := range findings {
		if strings.Contains(f.Message, "sentinel") {
			t.Errorf("allow-annotated line still reported: %s", f)
		}
	}
	// The same package run with the allow comments ignored (wrong analyzer
	// name) must keep the finding: simulate by checking the raw analyzer
	// output before suppression.
	var raw []Finding
	pass := &Pass{Analyzer: floateqAnalyzer, Pkg: pkgs[0], findings: &raw}
	floateqAnalyzer.Run(pass)
	if len(raw) <= len(findingsByAnalyzer(findings, "floateq")) {
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
	if got := run([]string{"-run", "nosuch"}); got != 2 {
		t.Errorf("unknown analyzer exited %d, want 2", got)
	}
	if got := run([]string{"./testdata/src/floateq"}); got != 1 {
		t.Errorf("fixture run exited %d, want 1", got)
	}
	if got := run([]string{"-json", "./testdata/src/floateq"}); got != 1 {
		t.Errorf("fixture -json run exited %d, want 1", got)
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
	pkgs, err := load([]string{"./testdata/src/locksend"})
	if err != nil {
		t.Fatal(err)
	}
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
	for _, f := range runAnalyzers(pkgs, analyzers()) {
		t.Errorf("parmavet is not clean on itself: %s", f)
	}
}

// TestAllowsInventory covers collectAllows: sites are found with their
// justifications, sorted by position, and a site without a "--" clause
// is reported as unjustified.
func TestAllowsInventory(t *testing.T) {
	pkgs, err := load([]string{"./testdata/src/locksend"})
	if err != nil {
		t.Fatal(err)
	}
	sites := collectAllows(pkgs)
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

// TestSortFindingsDeterministic pins the ordering contract behind the
// -json output: file, then line, then column, then analyzer, then
// message.
func TestSortFindingsDeterministic(t *testing.T) {
	want := []Finding{
		{File: "a.go", Line: 1, Col: 1, Analyzer: "mpierr", Message: "x"},
		{File: "a.go", Line: 1, Col: 1, Analyzer: "spanend", Message: "a"},
		{File: "a.go", Line: 1, Col: 1, Analyzer: "spanend", Message: "b"},
		{File: "a.go", Line: 2, Col: 9, Analyzer: "floateq", Message: "y"},
		{File: "b.go", Line: 1, Col: 2, Analyzer: "floateq", Message: "z"},
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
	fmt.Println(Finding{Analyzer: "floateq", File: "x.go", Line: 1, Col: 2, Message: "== on float operands"})
	// Output: x.go:1:2: floateq: == on float operands
}
