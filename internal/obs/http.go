package obs

import (
	"net/http"
	"net/http/pprof"
	"time"
)

// HTTP glue: the exporters as handlers, for daemons that scrape metrics
// over the wire instead of dumping artifacts at exit, and the request
// wrapper both daemons mount on their endpoints.

// MetricsHandler serves the recorder's metrics in Prometheus text
// exposition format — the same dump the -metrics CLI flag writes, minus
// the human-readable summary table.
func MetricsHandler(r *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// PprofMux returns a mux exposing the runtime profiling endpoints under
// /debug/pprof/, without touching http.DefaultServeMux. Mount it behind an
// operator flag: profiles reveal code paths and should not face users.
func PprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// statusWriter captures the response status for RED accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// InstrumentHTTP wraps one endpoint of a daemon's HTTP layer ("serve",
// "fleet") with traceparent adoption (or a fresh trace), a request span
// named <layer>/http/<endpoint> that the whole pipeline parents under, and
// RED metrics under <layer>/red/<endpoint>/. A request counts as failed
// for the error rate when it was shed (429) or the server broke (5xx) —
// client-data 4xxes are the client's problem. With recording disabled the
// wrapper is one load and a call: the hot path allocates nothing.
func InstrumentHTTP(layer, endpoint string, h http.HandlerFunc) http.HandlerFunc {
	spanName := layer + "/http/" + endpoint
	requests := layer + "/red/" + endpoint + "/requests"
	errs := layer + "/red/" + endpoint + "/errors"
	latency := layer + "/red/" + endpoint + "/latency_ms"
	return func(w http.ResponseWriter, r *http.Request) {
		if !Enabled() {
			h(w, r)
			return
		}
		start := time.Now()
		ctx := r.Context()
		if tp := r.Header.Get("traceparent"); tp != "" {
			if tc, err := ParseTraceparent(tp); err == nil {
				ctx = ContextWithTrace(ctx, tc)
			}
		}
		ctx, sp := StartSpanCtx(ctx, spanName)
		if !sp.Trace().IsZero() {
			w.Header().Set("traceparent", sp.TraceContext().Traceparent())
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r.WithContext(ctx))
		elapsed := time.Since(start)
		sp.End(I("status", sw.status))
		Add(requests, 1)
		if sw.status >= 500 || sw.status == http.StatusTooManyRequests {
			Add(errs, 1)
		}
		Observe(latency, float64(elapsed)/float64(time.Millisecond))
	}
}
