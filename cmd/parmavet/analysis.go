package main

// The analyzer framework: a Finding is one diagnostic, an Analyzer is a
// named check run over a type-checked package, and `//parmavet:allow
// <analyzer>` comments suppress findings on their own line or the line
// directly below (so both trailing and standalone comments work).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// Finding is one diagnostic, addressable as file:line:col.
type Finding struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Pass carries one package through one analyzer. Prog is the shared
// whole-program call graph built once per run; analyzers that only need
// the current package may ignore it, and it is nil-safe to query (a nil
// Prog simply resolves nothing, degrading interprocedural checks to
// their lexical behavior).
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Prog     *Program
	findings *[]Finding
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// inspectStack walks every file of the pass's package like ast.Inspect,
// handing fn each node together with its ancestors, outermost first.
func (p *Pass) inspectStack(fn func(n ast.Node, stack []ast.Node)) {
	for _, file := range p.Pkg.Files {
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil { // ast.Inspect signals the post-order pop with nil
				stack = stack[:len(stack)-1]
				return true
			}
			fn(n, stack)
			stack = append(stack, n)
			return true
		})
	}
}

// Analyzer is one project-specific check.
type Analyzer struct {
	Name string
	Doc  string
	// Packages limits the analyzer to these import paths; nil means every
	// package. Fixture packages under fixturePrefix are always in scope.
	Packages []string
	Run      func(*Pass)
}

// fixturePrefix is the import-path prefix of the golden-test fixtures,
// which every analyzer runs over.
const fixturePrefix = "parma/cmd/parmavet/testdata/"

func (a *Analyzer) appliesTo(pkgPath string) bool {
	return a.Packages == nil || strings.HasPrefix(pkgPath, fixturePrefix) || slices.Contains(a.Packages, pkgPath)
}

// analyzers returns the full suite in output order.
func analyzers() []*Analyzer {
	return []*Analyzer{spanendAnalyzer, locksendAnalyzer, poolsizeAnalyzer, determinismAnalyzer, ctxflowAnalyzer, atomicmixAnalyzer}
}

// allowRE matches the directive form only — the comment must BEGIN with
// `//parmavet:allow` (no space, like //go: directives), so prose that
// merely mentions the directive neither suppresses nor shows up in the
// -allows inventory.
var allowRE = regexp.MustCompile(`^//parmavet:allow[ \t]+([a-z0-9_,]+)`)

// allowedLines maps analyzer name -> file -> suppressed line set, built
// from //parmavet:allow comments. A comment suppresses its own line and
// the next one.
func allowedLines(pkg *Package) map[string]map[string]map[int]bool {
	out := map[string]map[string]map[int]bool{}
	mark := func(name, file string, line int) {
		if out[name] == nil {
			out[name] = map[string]map[int]bool{}
		}
		if out[name][file] == nil {
			out[name][file] = map[int]bool{}
		}
		out[name][file][line] = true
		out[name][file][line+1] = true
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, name := range strings.Split(m[1], ",") {
					mark(strings.TrimSpace(name), pos.Filename, pos.Line)
				}
			}
		}
	}
	return out
}

// runAnalyzers builds the whole-program call graph once, executes every
// analyzer over every package in its scope, and returns the surviving
// findings in deterministic file/line/col/analyzer order.
func runAnalyzers(pkgs []*Package) []Finding {
	prog := buildProgram(pkgs)
	var findings []Finding
	for _, pkg := range pkgs {
		allowed := allowedLines(pkg)
		for _, a := range analyzers() {
			if !a.appliesTo(pkg.Path) {
				continue
			}
			var raw []Finding
			a.Run(&Pass{Analyzer: a, Pkg: pkg, Prog: prog, findings: &raw})
			for _, f := range raw {
				if allowed[a.Name][f.File][f.Line] {
					continue
				}
				findings = append(findings, f)
			}
		}
	}
	sortFindings(findings)
	return findings
}

// sortFindings orders findings by file, line, column, then analyzer, so
// the output is deterministic run to run.
func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// Shared type-resolution helpers. Types are identified by package path and
// name rather than object identity because every load re-checks from
// source.

const (
	obsPath = "parma/internal/obs"
	mpiPath = "parma/internal/mpi"
)

// namedTypeIs reports whether t (after pointer indirection) is the named
// type pkgPath.name.
func namedTypeIs(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// pkgFunc reports whether fn (typically staticCallee's result) is a
// package-level function of pkgPath named one of names, or of any name
// when names is empty. Methods never match, so client.Get on an
// http.Client is not http.Get.
func pkgFunc(fn *types.Func, pkgPath string, names ...string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath &&
		fn.Type().(*types.Signature).Recv() == nil &&
		(len(names) == 0 || slices.Contains(names, fn.Name()))
}

// isSpanType reports whether t is obs.Span.
func isSpanType(t types.Type) bool {
	return t != nil && namedTypeIs(t, obsPath, "Span")
}

// spanSourceCall reports whether call produces an obs.Span (obs.StartSpan,
// obs.StartOn, the Recorder methods, or any helper returning one).
func spanSourceCall(info *types.Info, call *ast.CallExpr) bool {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return false // conversion, not a call
	}
	return isSpanType(info.TypeOf(call))
}

// methodOn resolves call to (receiver type name, method name) when the
// callee is a method whose receiver is a named type of pkgPath. It returns
// ok=false for plain function calls and methods of other packages.
func methodOn(info *types.Info, call *ast.CallExpr, pkgPath string) (recv, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	selection, isMethod := info.Selections[sel]
	if !isMethod || selection.Kind() != types.MethodVal {
		return "", "", false
	}
	t := selection.Recv()
	if ptr, okP := t.(*types.Pointer); okP {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return "", "", false
	}
	return obj.Name(), selection.Obj().Name(), true
}
