package fleet

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// blockingWorker parks every compute request until the test releases it,
// so a test can see whether a request reached the worker at all.
type blockingWorker struct {
	name    string
	srv     *httptest.Server
	entered chan struct{}
	release chan struct{}
}

func newBlockingWorker(t *testing.T, name string) *blockingWorker {
	t.Helper()
	w := &blockingWorker{
		name:    name,
		entered: make(chan struct{}, 16),
		release: make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprint(rw, `{"status":"ok","workers":1}`)
	})
	mux.HandleFunc("POST /v1/recover", func(rw http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.entered <- struct{}{}
		select {
		case <-w.release:
		case <-r.Context().Done():
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(rw, `{"worker":%q}`, w.name)
	})
	w.srv = httptest.NewServer(mux)
	t.Cleanup(func() {
		close(w.release)
		w.srv.Close()
	})
	return w
}

// TestMaxBodyRejectsOversize: the idempotency buffer is bounded — a body
// past MaxBody answers 413 before any backend sees a byte.
func TestMaxBodyRejectsOversize(t *testing.T) {
	w0 := newBlockingWorker(t, "w0")
	rt, err := New(Config{
		Backends:       []*Backend{NewBackend(w0.name, w0.srv.URL)},
		AttemptTimeout: 5 * time.Second,
		Probe:          fastProbe(),
		MaxBody:        256,
	})
	if err != nil {
		t.Fatal(err)
	}
	startRouter(t, rt)
	h := rt.Handler()

	big := append(recoverBody(8, 8), bytes.Repeat([]byte(" "), 512)...)
	rec := doRecover(t, h, big)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: status %d, want 413", rec.Code)
	}
	select {
	case <-w0.entered:
		t.Fatal("oversize request reached the backend")
	default:
	}

	// An in-bound body still goes through untouched.
	go func() { <-w0.entered; w0.release <- struct{}{} }()
	if rec := doRecover(t, h, recoverBody(8, 8)); rec.Code != http.StatusOK {
		t.Fatalf("in-bound body: status %d, want 200", rec.Code)
	}
}
