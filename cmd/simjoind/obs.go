package main

import (
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"simjoin/internal/obsv/trace"
)

// defaultTraceCapacity is how many completed traces each daemon retains
// for GET /debug/traces.
const defaultTraceCapacity = 128

// instrument is the daemon middleware stack shared by worker and
// coordinator mode. Outermost it opens a server span — continuing the
// caller's trace when the request carries a W3C traceparent header, a
// fresh trace otherwise — and stores it in the request context so
// handlers, the join library and the coordinator's fan-out all record
// under it. It counts every request and every ≥ 400 response by route,
// observes the handler's wall time in the route's latency histogram,
// and emits one structured access-log line carrying trace_id/span_id,
// so logs and /debug/traces cross-link on the IDs.
func instrument(m *metrics, tr *trace.Tracer, logger *slog.Logger, pattern string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		m.requests.With(pattern).Inc()
		sp := tr.StartRemote(pattern, r.Header.Get("traceparent"))
		sp.SetAttr("method", r.Method)
		sp.SetAttr("path", r.URL.Path)
		if reqID := r.Header.Get("X-Request-Id"); reqID != "" {
			sp.SetAttr("request_id", reqID)
		}
		if sp != nil {
			r = r.WithContext(trace.NewContext(r.Context(), sp))
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		elapsed := time.Since(start)
		m.latency.With(pattern).Observe(elapsed.Seconds())
		if sw.status >= 400 {
			m.errors.With(pattern).Inc()
		}
		sp.SetAttr("status", strconv.Itoa(sw.status))
		sp.End()
		if logger == nil {
			return
		}
		level := slog.LevelInfo
		if sw.status >= 500 {
			level = slog.LevelError
		} else if sw.status >= 400 {
			level = slog.LevelWarn
		}
		attrs := []any{
			slog.String("method", r.Method),
			slog.String("route", pattern),
			slog.Int("status", sw.status),
			slog.Int64("bytes", sw.bytes),
			slog.Duration("duration", elapsed),
		}
		if sp != nil {
			attrs = append(attrs,
				slog.String("trace_id", sp.TraceID().String()),
				slog.String("span_id", sp.SpanID().String()))
		}
		if reqID := r.Header.Get("X-Request-Id"); reqID != "" {
			attrs = append(attrs, slog.String("request_id", reqID))
		}
		logger.Log(r.Context(), level, "request", attrs...)
	}
}

// tracesHandler serves the tracer's retained traces as JSON, newest
// first — the raw material for debugging one slow request after the
// fact. ?trace=<id> keeps only that trace's entries (a daemon can
// retain several views of one distributed trace) and ?limit=N caps the
// answer; the unfiltered shape stays a bare array for existing
// scrapers. The route is deliberately outside the metrics/trace
// middleware: scraping traces must not mint traces.
func tracesHandler(tr *trace.Tracer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		traces := tr.Traces()
		for i, j := 0, len(traces)-1; i < j; i, j = i+1, j-1 {
			traces[i], traces[j] = traces[j], traces[i]
		}
		if want := r.URL.Query().Get("trace"); want != "" {
			kept := traces[:0]
			for _, td := range traces {
				if td.TraceID == want {
					kept = append(kept, td)
				}
			}
			traces = kept
		}
		if v := r.URL.Query().Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				httpError(w, http.StatusBadRequest, "limit must be a non-negative integer, got %q", v)
				return
			}
			if n < len(traces) {
				traces = traces[:n]
			}
		}
		if traces == nil {
			traces = []trace.TraceData{}
		}
		writeJSON(w, traces)
	}
}

// buildVersion is the binary's identity block for /healthz, computed
// once: module version, VCS commit and dirty flag from the embedded
// build info, plus the Go toolchain — enough for a scrape or an
// incident report to say exactly which binary was serving.
var buildVersion = func() map[string]any {
	out := map[string]any{"go": runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	if v := bi.Main.Version; v != "" {
		out["version"] = v
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			out["commit"] = s.Value
		case "vcs.time":
			out["commit_time"] = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				out["dirty"] = true
			}
		}
	}
	return out
}()
