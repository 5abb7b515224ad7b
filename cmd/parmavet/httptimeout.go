package main

// httptimeout: deadlines on both sides of every HTTP hop.
//
// Inbound: every `http.Server` composite literal must set
// ReadHeaderTimeout (or the stricter ReadTimeout, which bounds the header
// phase too). The zero value means the server waits forever for a client
// to finish sending headers, so one slow-loris peer can pin a connection
// — and with parmad's bounded worker pool behind the handler, pinned
// connections are exactly the resource the admission queue is supposed to
// protect.
//
// Outbound (the fleet router made the repo a serious HTTP client, so the
// same discipline applies in reverse): an `http.Client` composite literal
// must set Timeout — the zero value waits on a wedged backend forever,
// and in a proxy that pins the caller's connection too, cascading the
// hang upstream. The package-level helpers (http.Get, http.Post,
// http.Head, http.PostForm) use the timeout-less DefaultClient and accept
// no context, so they are flagged outright. And requests must be built
// with http.NewRequestWithContext, not http.NewRequest: a client-level
// Timeout alone is one knob for all calls, while the per-attempt context
// deadline is what lets a router bound each failover attempt separately.
//
// Servers/clients built without a composite literal (field-by-field
// assignment) are out of scope; the repo builds them literally.

import (
	"go/ast"
	"go/types"
)

var httptimeoutAnalyzer = &Analyzer{
	Name: "httptimeout",
	Doc:  "http.Server/http.Client literals must set timeouts; outbound requests need per-attempt context deadlines",
	Run:  runHTTPTimeout,
}

func runHTTPTimeout(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				checkHTTPLiteral(pass, info, n)
			case *ast.CallExpr:
				checkHTTPCall(pass, info, n)
			}
			return true
		})
	}
}

func checkHTTPLiteral(pass *Pass, info *types.Info, lit *ast.CompositeLit) {
	var wantKeys []string
	var report string
	switch {
	case namedTypeIs(info.TypeOf(lit), "net/http", "Server"):
		wantKeys = []string{"ReadHeaderTimeout", "ReadTimeout"}
		report = "http.Server literal without ReadHeaderTimeout: header reads block forever, so one slow client pins a connection"
	case namedTypeIs(info.TypeOf(lit), "net/http", "Client"):
		wantKeys = []string{"Timeout"}
		report = "http.Client literal without Timeout: a wedged peer hangs the call (and its caller) forever"
	default:
		return
	}
	for _, el := range lit.Elts {
		kv, isKV := el.(*ast.KeyValueExpr)
		if !isKV {
			continue
		}
		key, isIdent := kv.Key.(*ast.Ident)
		if !isIdent {
			continue
		}
		for _, want := range wantKeys {
			if key.Name == want {
				return
			}
		}
	}
	pass.Reportf(lit.Pos(), "%s", report)
}

// checkHTTPCall flags the package-level net/http helpers; method calls on
// an http.Client value do not match, so client.Get on a timeout-bearing
// client is not confused with http.Get.
func checkHTTPCall(pass *Pass, info *types.Info, call *ast.CallExpr) {
	fn := staticCallee(info, call)
	switch {
	case pkgFunc(fn, "net/http", "Get", "Post", "Head", "PostForm"):
		pass.Reportf(call.Pos(), "http.%s uses the timeout-less DefaultClient and takes no context: build the request with NewRequestWithContext and send it on a Client with Timeout set", fn.Name())
	case pkgFunc(fn, "net/http", "NewRequest"):
		pass.Reportf(call.Pos(), "http.NewRequest carries no context: use http.NewRequestWithContext so each attempt gets its own deadline")
	}
}
