package obs

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestMetricsHandler serves the Prometheus dump, including span rollups,
// over HTTP.
func TestMetricsHandler(t *testing.T) {
	r := NewRecorder()
	r.Registry().Counter("serve/requests_total").Add(7)
	sp := r.StartSpan("serve/batch")
	sp.End()

	srv := httptest.NewServer(MetricsHandler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	text := string(body)
	for _, want := range []string{"parma_serve_requests_total 7", "parma_span_serve_batch_count 1"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestPprofMux pins the profiling routes.
func TestPprofMux(t *testing.T) {
	srv := httptest.NewServer(PprofMux())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof cmdline status = %d, want 200", resp.StatusCode)
	}
}
