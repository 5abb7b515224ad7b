package serve

import (
	"encoding/json"
	"math"
	"testing"
)

// TestRecoverMethodSelection: the wire has no backend choice any more. A
// client that still sends the old "method" field — any spelling, valid or
// not — gets the same 200 as one that omits it, the bitwise-same recovered
// field, and no "method" key in the reply.
func TestRecoverMethodSelection(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	truth, z := workload(t, 6)

	var want [][]float64
	for _, method := range []any{nil, "dense", "auto", "qr"} {
		// Cold every time: a warm start from the previous reply would change
		// the trajectory, and this test compares replies bit for bit.
		req := map[string]any{"rows": 6, "cols": 6, "z": rowsFromField(z), "warm_start": false}
		if method != nil {
			req["method"] = method
		}
		resp, body := postJSON(t, hs.Client(), hs.URL+"/v1/recover", req)
		if resp.StatusCode != 200 {
			t.Fatalf("method %v: status %d: %s", method, resp.StatusCode, body)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(body, &keys); err != nil {
			t.Fatal(err)
		}
		if _, ok := keys["method"]; ok {
			t.Errorf("method %v: reply carries a method key: %s", method, keys["method"])
		}
		var out RecoverResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		rec, err := fieldFromRows(6, 6, 64, out.R, true)
		if err != nil {
			t.Fatalf("method %v: response field invalid: %v", method, err)
		}
		if d := rec.MaxAbsDiff(truth); d > 1 {
			t.Errorf("method %v: recovered field off by %g kΩ", method, d)
		}
		if want == nil {
			want = out.R
			continue
		}
		for i := range want {
			for j := range want[i] {
				if math.Float64bits(out.R[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("method %v: r[%d][%d] = %v, want %v bitwise", method, i, j, out.R[i][j], want[i][j])
				}
			}
		}
	}
}
