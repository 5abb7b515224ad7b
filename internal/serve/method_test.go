package serve

import (
	"encoding/json"
	"testing"

	"parma/internal/grid"
	"parma/internal/solver"
)

// TestRecoverMethodSelection: the method field round-trips — explicit
// "sparse" and "dense" run that backend and report it, "auto"/empty resolve
// per geometry, and garbage is rejected before admission.
func TestRecoverMethodSelection(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	truth, z := workload(t, 6)

	for _, tc := range []struct {
		method, want string
	}{
		{method: "sparse", want: "sparse"},
		{method: "dense", want: "dense"},
		{method: "", want: "dense"},     // auto at 6×6 resolves dense
		{method: "auto", want: "dense"}, // spelled out
	} {
		req := RecoverRequest{Rows: 6, Cols: 6, Z: rowsFromField(z), Method: tc.method}
		resp, body := postJSON(t, hs.Client(), hs.URL+"/v1/recover", req)
		if resp.StatusCode != 200 {
			t.Fatalf("method %q: status %d: %s", tc.method, resp.StatusCode, body)
		}
		var out RecoverResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Method != tc.want {
			t.Errorf("method %q: response method %q, want %q", tc.method, out.Method, tc.want)
		}
		rec, err := fieldFromRows(6, 6, 64, out.R, true)
		if err != nil {
			t.Fatalf("method %q: response field invalid: %v", tc.method, err)
		}
		if d := rec.MaxAbsDiff(truth); d > 1 {
			t.Errorf("method %q: recovered field off by %g kΩ", tc.method, d)
		}
	}

	req := RecoverRequest{Rows: 6, Cols: 6, Z: rowsFromField(z), Method: "qr"}
	resp, body := postJSON(t, hs.Client(), hs.URL+"/v1/recover", req)
	if resp.StatusCode != 400 {
		t.Fatalf("invalid method: status %d, want 400: %s", resp.StatusCode, body)
	}
}

// TestBatchKeySeparatesMethods: tasks that will run different backends must
// not share a batch (their warm-start locality differs), while auto
// groups with the explicit spelling of whatever it resolves to.
func TestBatchKeySeparatesMethods(t *testing.T) {
	a := grid.New(8, 8)
	dense := batchKey(kindRecover, a, 1e-8, 0, solver.MethodDense)
	sparse := batchKey(kindRecover, a, 1e-8, 0, solver.MethodSparse)
	if dense == sparse {
		t.Fatalf("dense and sparse share batch key %q", dense)
	}
	auto := batchKey(kindRecover, a, 1e-8, 0, solver.ResolveMethod(8, 8, solver.MethodAuto))
	if auto != dense {
		t.Fatalf("auto at 8x8 keyed %q, want the dense key %q", auto, dense)
	}
}
