package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"simjoin"
	"simjoin/internal/cluster"
	"simjoin/internal/live"
	"simjoin/internal/obsv/querylog"
	"simjoin/internal/obsv/trace"
	"simjoin/internal/store"
)

// defaultMaxBodyBytes bounds request bodies unless -max-body-bytes says
// otherwise; datasets beyond the limit belong in files loaded at startup
// (-load) or in the durable data directory (-data), not in request
// payloads.
const defaultMaxBodyBytes = 64 << 20

// api is the daemon's REST surface: one handler per route, the same in
// worker and coordinator mode. Handlers decode and validate requests,
// price joins against the admission budget, journal queries and encode
// answers; the backend does the work — a localBackend in-process, a
// clusterBackend by scatter-gather over a worker fleet.
type api struct {
	b backend
	m *metrics
	// tracer retains completed request traces for GET /debug/traces;
	// log, when non-nil, gets one structured access-log line per request.
	tracer *trace.Tracer
	log    *slog.Logger
	// qlog is the per-query journal behind GET /debug/queries: every
	// join/KNN/range/watch query served, with its estimate, actuals and
	// trace ID.
	qlog *querylog.Log
	// maxBody bounds request bodies (-max-body-bytes).
	maxBody int64
	// maxPairs, when > 0, is the admission budget (-max-pairs): join
	// queries whose predicted result size exceeds it are refused with
	// 429 — or run counting-only when the request sets "degrade" —
	// instead of materializing a result nobody bounded.
	maxPairs int64
	// debug additionally mounts net/http/pprof under /debug/pprof/.
	debug bool
}

func newAPI(m *metrics, b backend) *api {
	return &api{
		b: b, m: m, maxBody: defaultMaxBodyBytes,
		tracer: trace.New(defaultTraceCapacity),
		qlog:   querylog.New(0),
	}
}

// backend is one tier's implementation of the API. Arguments arrive
// validated; errors map onto statuses through statusOf. Answers gathered
// from a worker fleet carry a *fanout block, nil on a worker.
type backend interface {
	// health is the GET /healthz body, minus the build block.
	health(ctx context.Context) map[string]any
	list() []datasetInfo
	// describe answers GET /datasets/{name}; eps > 0 adds an "estimate"
	// block: the predicted self-join size at that threshold.
	describe(ctx context.Context, name string, eps float64, m simjoin.Metric) (map[string]any, error)
	// explain answers GET /datasets/{name}/explain: the plan a self-join
	// with opt would run, without running it.
	explain(ctx context.Context, name string, opt simjoin.Options) (map[string]any, error)
	// put registers pts under name, replacing any earlier dataset;
	// margin (0 = default) is the cluster's ε-replication width.
	put(ctx context.Context, name string, pts [][]float64, margin float64) (datasetInfo, error)
	remove(ctx context.Context, name string) error
	appendPoints(ctx context.Context, name string, pts [][]float64) (appendResponse, error)
	// price predicts q's result size, charging the estimate counter; ok
	// is false when none was made. budgeted (a -max-pairs budget is set)
	// wants one even where it costs a sample join or a scatter round.
	price(ctx context.Context, q joinQuery, budgeted bool) (est int64, ok bool)
	// join runs q, collecting its pairs when emit is nil and streaming
	// them to emit otherwise; q.count runs it counting-only.
	join(ctx context.Context, q joinQuery, emit func(i, j int)) (joinRun, error)
	rangeQuery(ctx context.Context, name string, q pointQuery, m simjoin.Metric) ([]int, *fanout, error)
	knn(ctx context.Context, name string, q pointQuery, m simjoin.Metric) ([]neighbor, *fanout, error)
	// watch opens a standing query (see watchFeed).
	watch(ctx context.Context, name string, req watchRequest, m simjoin.Metric) (*watchFeed, error)
	// stitch builds the GET /debug/traces/{id} body from this daemon's
	// spans of the trace; ok is false when none are retained anywhere.
	stitch(ctx context.Context, id string, local []trace.SpanData) (body any, ok bool)
	// shutdown ends every standing-query stream with a terminal event,
	// so graceful shutdown is not held open by long-lived watches.
	shutdown()
}

// handler wires up the route table, each route wrapped in the tracing +
// access-log + request/error/latency middleware, behind GET /metrics
// (Prometheus text), GET /debug/traces and GET /debug/queries. The debug
// routes sit outside the middleware: scraping must not mint traces.
func (a *api) handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range []struct {
		pattern string
		h       http.HandlerFunc
	}{
		{"GET /healthz", a.healthz},
		{"GET /datasets", a.list},
		{"GET /datasets/{name}", a.describe},
		{"GET /datasets/{name}/explain", a.explain},
		{"PUT /datasets/{name}", a.put},
		{"DELETE /datasets/{name}", a.remove},
		{"POST /datasets/{name}/points", a.appendPoints},
		{"POST /datasets/{name}/watch", a.watch},
		{"POST /datasets/{name}/selfjoin", a.selfJoin},
		{"POST /datasets/{name}/range", a.rangeQuery},
		{"POST /datasets/{name}/knn", a.knn},
		{"POST /join", a.join},
	} {
		mux.HandleFunc(rt.pattern, instrument(a.m, a.tracer, a.log, rt.pattern, rt.h))
	}
	mux.Handle("GET /metrics", a.m.reg.Handler())
	mux.HandleFunc("GET /debug/traces", tracesHandler(a.tracer))
	mux.HandleFunc("GET /debug/traces/{id}", a.traceByID)
	mux.HandleFunc("GET /debug/queries", queriesHandler(a.qlog))
	if a.debug {
		mountPprof(mux)
	}
	return mux
}

// badRequest wraps a caller mistake a backend finds past the shared
// validation, such as a dimensionality mismatch (400). statusOf also
// classifies the not-found and query errors of the store, the live
// engine and the cluster layer, and unsupported (501).
type badRequest struct{ error }

// statusOf maps a backend error onto its HTTP status: caller mistakes
// are 4xx, an unreachable fleet 502, anything else 500.
func statusOf(err error) int {
	var (
		bad   badRequest
		unsup unsupported
		cnf   cluster.NotFoundError
		cqe   cluster.QueryError
		cue   cluster.UnavailableError
		lnf   live.UnknownDatasetError
		lqe   live.QueryError
		sie   store.InputError
	)
	switch {
	case errors.As(err, &cnf), errors.As(err, &lnf), errors.Is(err, store.ErrNotFound):
		return http.StatusNotFound
	case errors.As(err, &bad), errors.As(err, &cqe), errors.As(err, &lqe), errors.As(err, &sie):
		return http.StatusBadRequest
	case errors.As(err, &unsup):
		return http.StatusNotImplemented
	case errors.As(err, &cue):
		return http.StatusBadGateway
	}
	return http.StatusInternalServerError
}

// httpError writes a JSON error with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// fail answers a backend error with its mapped status.
func fail(w http.ResponseWriter, err error) { httpError(w, statusOf(err), "%v", err) }

// reply answers with out, or with err when the backend failed.
func reply(w http.ResponseWriter, out any, err error) {
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// decode parses a JSON request body into v, bounded by -max-body-bytes,
// answering 400 itself when the body is unusable.
func (a *api) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, a.maxBody)).Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "parsing request: %v", err)
		return false
	}
	return true
}

// putRequest is the JSON upload/append shape; CSV bodies use
// Content-Type text/csv with raw rows instead.
type putRequest struct {
	Points [][]float64 `json:"points"`
}

// decodeUpload parses an upload or append body — JSON {"points": …} or
// text/csv — into a rectangular, non-empty point list of at least one
// dimension, answering 400 itself when the body is unusable.
func (a *api) decodeUpload(w http.ResponseWriter, r *http.Request) ([][]float64, bool) {
	var pts [][]float64
	if strings.HasPrefix(r.Header.Get("Content-Type"), "text/csv") {
		ds, err := simjoin.ReadCSV(http.MaxBytesReader(w, r.Body, a.maxBody))
		if err != nil {
			httpError(w, http.StatusBadRequest, "parsing CSV: %v", err)
			return nil, false
		}
		pts = make([][]float64, ds.Len())
		for i := range pts {
			pts[i] = ds.Point(i)
		}
	} else {
		var req putRequest
		if !a.decode(w, r, &req) {
			return nil, false
		}
		pts = req.Points
	}
	if len(pts) == 0 {
		httpError(w, http.StatusBadRequest, "no points in upload")
		return nil, false
	}
	if len(pts[0]) == 0 {
		httpError(w, http.StatusBadRequest, "points need at least one dimension")
		return nil, false
	}
	for i, p := range pts {
		if len(p) != len(pts[0]) {
			httpError(w, http.StatusBadRequest, "point %d has %d dims, want %d", i, len(p), len(pts[0]))
			return nil, false
		}
	}
	return pts, true
}

// parseMetric parses an optional metric name; empty means L2.
func parseMetric(s string) (simjoin.Metric, error) {
	if s == "" {
		return simjoin.L2, nil
	}
	return simjoin.ParseMetric(s)
}

// thresholdParams parses the eps (positive) and metric query parameters
// of the estimate routes, answering 400 itself when either is unusable.
// Unless required, a missing eps yields 0: no estimate wanted.
func thresholdParams(w http.ResponseWriter, r *http.Request, required bool) (float64, simjoin.Metric, bool) {
	q := r.URL.Query()
	if q.Get("eps") == "" && !required {
		return 0, simjoin.L2, true
	}
	eps, err := strconv.ParseFloat(q.Get("eps"), 64)
	if err != nil || !(eps > 0) {
		httpError(w, http.StatusBadRequest, "eps must be a positive number, got %q", q.Get("eps"))
		return 0, 0, false
	}
	m, err := parseMetric(q.Get("metric"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return 0, 0, false
	}
	return eps, m, true
}

// datasetInfo is the list/upload response shape, shared with the
// cluster layer's own dataset listing.
type datasetInfo = cluster.Info

// appendResponse is the append answer. A coordinator adds whether every
// shard took its slice of the batch.
type appendResponse struct {
	datasetInfo
	Partial *bool                `json:"partial,omitempty"`
	Failed  []cluster.ShardError `json:"failed_shards,omitempty"`
}

// fanout is the completeness block of an answer gathered from a worker
// fleet: how many shards were asked, and which of them failed (the
// answer then lacks their contribution and is marked partial).
type fanout struct {
	Shards  int                  `json:"shards"`
	Partial bool                 `json:"partial"`
	Failed  []cluster.ShardError `json:"failed_shards,omitempty"`
}

func (a *api) healthz(w http.ResponseWriter, r *http.Request) {
	out := a.b.health(r.Context())
	out["build"] = buildVersion
	writeJSON(w, out)
}

func (a *api) list(w http.ResponseWriter, r *http.Request) { writeJSON(w, a.b.list()) }

// describe answers GET /datasets/{name}[?eps=…[&metric=…]]; the
// estimate block is also how a coordinator prices a query shard by shard.
func (a *api) describe(w http.ResponseWriter, r *http.Request) {
	eps, m, ok := thresholdParams(w, r, false)
	if !ok {
		return
	}
	out, err := a.b.describe(r.Context(), r.PathValue("name"), eps, m)
	reply(w, out, err)
}

// explain serves GET /datasets/{name}/explain?eps=…[&metric=…]
// [&algorithm=…].
func (a *api) explain(w http.ResponseWriter, r *http.Request) {
	eps, m, ok := thresholdParams(w, r, true)
	if !ok {
		return
	}
	opt := simjoin.Options{Eps: eps, Metric: m, Algorithm: simjoin.Algorithm(r.URL.Query().Get("algorithm"))}
	out, err := a.b.explain(r.Context(), r.PathValue("name"), opt)
	reply(w, out, err)
}

func (a *api) put(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if strings.TrimSpace(name) == "" {
		httpError(w, http.StatusBadRequest, "dataset name required")
		return
	}
	margin := 0.0
	if v := r.URL.Query().Get("margin"); v != "" {
		parsed, err := strconv.ParseFloat(v, 64)
		if err != nil || !(parsed > 0) {
			httpError(w, http.StatusBadRequest, "margin must be a positive number, got %q", v)
			return
		}
		margin = parsed
	}
	pts, ok := a.decodeUpload(w, r)
	if !ok {
		return
	}
	info, err := a.b.put(r.Context(), name, pts, margin)
	reply(w, info, err)
}

func (a *api) remove(w http.ResponseWriter, r *http.Request) {
	if err := a.b.remove(r.Context(), r.PathValue("name")); err != nil {
		fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// appendPoints grows a dataset in place; later queries see the new points.
func (a *api) appendPoints(w http.ResponseWriter, r *http.Request) {
	pts, ok := a.decodeUpload(w, r)
	if !ok {
		return
	}
	out, err := a.b.appendPoints(r.Context(), r.PathValue("name"), pts)
	reply(w, out, err)
}

// joinParams is the shared query shape for self- and two-set joins.
type joinParams struct {
	Eps       float64 `json:"eps"`
	Metric    string  `json:"metric"`    // "L2" (default), "L1", "Linf"
	Algorithm string  `json:"algorithm"` // default "ekdb"; "auto" allowed
	Workers   int     `json:"workers"`
	Float32   bool    `json:"float32"`   // float32 kernel mode (see docs/KERNELS.md)
	MaxPairs  int     `json:"max_pairs"` // truncate the response (0 = no cap)
	Stream    bool    `json:"stream"`    // NDJSON: one [i,j] line per pair, then a summary object
	// Degrade opts into the admission budget's soft failure mode: a
	// query whose estimated result size exceeds the server's -max-pairs
	// runs counting-only (exact total, no pairs) instead of being
	// rejected with 429.
	Degrade bool `json:"degrade"`
}

// twoJoinRequest names the two sides of a cross-dataset join.
type twoJoinRequest struct {
	A string `json:"a"`
	B string `json:"b"`
	joinParams
}

// joinQuery is a validated join: a self-join of name, or, when twoSet,
// the join name × other. An empty other never means a self-join.
type joinQuery struct {
	name, other string
	twoSet      bool
	opt         simjoin.Options
	// count runs the join counting-only: exact total, no pairs.
	count bool
}

// joinRun is a finished join: its pairs when collected, the exact
// total, and the engine's detail stats (zero from a cluster).
type joinRun struct {
	pairs   [][2]int
	total   int64
	elapsed time.Duration
	stats   simjoin.JoinStats
	fan     *fanout
}

// joinSummary is a join answer minus its pairs: the whole answer of a
// degraded run, and the closing line of an NDJSON stream.
type joinSummary struct {
	Total     int64   `json:"total"`
	Truncated bool    `json:"truncated"`
	ElapsedMS float64 `json:"elapsed_ms"`
	*fanout
	// EstimatedPairs is the pre-run prediction, present when one was
	// made (a sketch was resident, or the admission budget priced it).
	EstimatedPairs *int64 `json:"estimated_pairs,omitempty"`
	// Degraded marks a counting-only run forced by the admission budget:
	// Total is exact, Pairs is empty.
	Degraded bool `json:"degraded,omitempty"`
}

// joinResponse is the collected join answer.
type joinResponse struct {
	Pairs [][2]int `json:"pairs"`
	joinSummary
}

func (p joinParams) options() (simjoin.Options, error) {
	m, err := parseMetric(p.Metric)
	return simjoin.Options{Eps: p.Eps, Metric: m, Workers: p.Workers, Algorithm: simjoin.Algorithm(p.Algorithm), Float32: p.Float32}, err
}

func (a *api) selfJoin(w http.ResponseWriter, r *http.Request) {
	var p joinParams
	if a.decode(w, r, &p) {
		a.runJoin(w, r, "POST /datasets/{name}/selfjoin", "selfjoin", joinQuery{name: r.PathValue("name")}, p)
	}
}

func (a *api) join(w http.ResponseWriter, r *http.Request) {
	var req twoJoinRequest
	if a.decode(w, r, &req) {
		a.runJoin(w, r, "POST /join", "join", joinQuery{name: req.A, other: req.B, twoSet: true}, req.joinParams)
	}
}

// runJoin prices q against the admission budget, then rejects it (429),
// runs it counting-only (degrade), streams it or collects it, and
// journals the outcome under kind. route labels the stream counters.
func (a *api) runJoin(w http.ResponseWriter, r *http.Request, route, kind string, q joinQuery, p joinParams) {
	opt, err := p.options()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opt.Trace = trace.FromContext(r.Context())
	q.opt = opt
	est := int64(-1)
	// !(eps > 0) goes unpriced: the join itself rejects the threshold
	// with a clearer message.
	if opt.Eps > 0 {
		if e, ok := a.b.price(r.Context(), q, a.maxPairs > 0); ok {
			est = e
		}
	}
	rec := querylog.Record{
		Kind: kind, Dataset: q.name, Dataset2: q.other,
		Eps: p.Eps, Metric: opt.Metric.String(), Algorithm: p.Algorithm,
		Stream: p.Stream, EstimatedPairs: est, TraceID: traceIDOf(r),
	}
	start := time.Now()
	limit := p.MaxPairs
	if a.maxPairs > 0 && est > a.maxPairs {
		if !p.Degrade {
			a.rejectOverBudget(w, est)
			a.recordFailure(rec, start, querylog.OutcomeRejected, nil)
			return
		}
		a.m.estimateDegraded.Inc()
		q.count, limit = true, 0
	} else if p.Stream {
		a.streamJoin(w, r, route, q, limit, rec, start)
		return
	}
	run, err := a.b.join(r.Context(), q, nil)
	if err != nil {
		fail(w, err)
		a.recordFailure(rec, start, querylog.OutcomeError, err)
		return
	}
	rec.Outcome = querylog.OutcomeOK
	if q.count {
		rec.Outcome = querylog.OutcomeDegraded
	}
	out := joinResponse{Pairs: run.pairs, joinSummary: a.finishJoin(rec, run, limit)}
	if limit > 0 && len(out.Pairs) > limit {
		out.Pairs = out.Pairs[:limit]
	}
	if out.Pairs == nil {
		out.Pairs = [][2]int{}
	}
	out.Degraded = q.count
	writeJSON(w, out)
}

// streamFlushEvery is how many NDJSON pair lines accumulate between
// explicit flushes to the client.
const streamFlushEvery = 1024

// streamJoin answers a join as NDJSON — one [i,j] line per pair the
// moment the backend finds it, closed by a summary object — so neither
// the daemon nor the client ever holds the full pair set. The route's
// stream counters are charged here, where the pair volume is visible.
func (a *api) streamJoin(w http.ResponseWriter, r *http.Request, route string, q joinQuery, limit int, rec querylog.Record, start time.Time) {
	a.m.streamRequests.With(route).Inc()
	w.Header().Set("Content-Type", "application/x-ndjson")
	bw, rc := bufio.NewWriter(w), http.NewResponseController(w)
	var sent int64
	run, err := a.b.join(r.Context(), q, func(i, j int) {
		if limit > 0 && sent >= int64(limit) {
			return
		}
		sent++
		fmt.Fprintf(bw, "[%d,%d]\n", i, j)
		if sent%streamFlushEvery == 0 {
			_ = bw.Flush()
			_ = rc.Flush()
		}
	})
	if err != nil {
		// Joins fail before delivering any pair (validation, or every
		// shard down), so a plain error answer is still possible.
		fail(w, err)
		a.recordFailure(rec, start, querylog.OutcomeError, err)
		return
	}
	a.m.streamPairs.Add(sent)
	rec.Outcome = querylog.OutcomeOK
	writeEventLine(bw, a.finishJoin(rec, run, limit))
	_ = bw.Flush()
}

// finishJoin journals a completed join and summarizes it. rec carries
// the pre-run estimate (< 0 when none was made), which the summary
// echoes next to the actual total.
func (a *api) finishJoin(rec querylog.Record, run joinRun, limit int) joinSummary {
	est := rec.EstimatedPairs
	a.m.observeEstimateRatio(est, run.total)
	fillFromRun(&rec, run)
	a.record(rec)
	s := joinSummary{
		Total:     run.total,
		Truncated: limit > 0 && run.total > int64(limit),
		ElapsedMS: float64(run.elapsed.Microseconds()) / 1000,
		fanout:    run.fan,
	}
	if est >= 0 {
		s.EstimatedPairs = &est
	}
	return s
}

// rejectOverBudget answers 429, carrying the estimate that triggered it
// so the caller can see how far over budget the query was.
func (a *api) rejectOverBudget(w http.ResponseWriter, est int64) {
	a.m.estimateRejected.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error":           fmt.Sprintf(`estimated result size %d exceeds the server's -max-pairs budget %d; narrow eps, or set "degrade": true for a counting-only run`, est, a.maxPairs),
		"estimated_pairs": est,
		"max_pairs":       a.maxPairs,
	})
}

// pointQuery is the range/KNN request shape.
type pointQuery struct {
	Point  []float64 `json:"point"`
	Radius float64   `json:"radius"` // range queries
	K      int       `json:"k"`      // KNN queries
	Metric string    `json:"metric"`
}

// neighbor is one KNN answer entry, in the cluster layer's wire shape.
type neighbor = cluster.Neighbor

// decodePoint parses and validates a range or KNN body, answering 400
// itself when it is unusable.
func (a *api) decodePoint(w http.ResponseWriter, r *http.Request, kind string) (pointQuery, simjoin.Metric, bool) {
	var q pointQuery
	if !a.decode(w, r, &q) {
		return q, 0, false
	}
	m, err := parseMetric(q.Metric)
	switch {
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
	case kind == "range" && !(q.Radius > 0):
		httpError(w, http.StatusBadRequest, "radius must be positive")
	case kind == "knn" && q.K < 1:
		httpError(w, http.StatusBadRequest, "k must be ≥ 1")
	default:
		return q, m, true
	}
	return q, m, false
}

func (a *api) rangeQuery(w http.ResponseWriter, r *http.Request) {
	q, m, ok := a.decodePoint(w, r, "range")
	if !ok {
		return
	}
	start := time.Now()
	idx, fan, err := a.b.rangeQuery(r.Context(), r.PathValue("name"), q, m)
	if err != nil {
		fail(w, err)
		return
	}
	if idx == nil {
		idx = []int{}
	}
	a.recordPoint(r, "range", q.Radius, m, len(idx), fan, start)
	writeJSON(w, struct {
		Indexes []int `json:"indexes"`
		*fanout
	}{idx, fan})
}

func (a *api) knn(w http.ResponseWriter, r *http.Request) {
	q, m, ok := a.decodePoint(w, r, "knn")
	if !ok {
		return
	}
	start := time.Now()
	nbrs, fan, err := a.b.knn(r.Context(), r.PathValue("name"), q, m)
	if err != nil {
		fail(w, err)
		return
	}
	if nbrs == nil {
		nbrs = []neighbor{}
	}
	a.recordPoint(r, "knn", 0, m, len(nbrs), fan, start)
	writeJSON(w, struct {
		Neighbors []neighbor `json:"neighbors"`
		*fanout
	}{nbrs, fan})
}

// watchRequest is the POST /datasets/{name}/watch body: the standing
// query plus the reconnect cursors.
type watchRequest struct {
	Eps    float64 `json:"eps"`
	Metric string  `json:"metric"`
	// Other turns the self-join into a two-set standing query; pairs are
	// ({name}-index, other-index).
	Other string `json:"other"`
	// After / AfterOther are replay cursors (dataset lengths from earlier
	// batch events): everything past them is re-delivered in one catch-up
	// batch before live delivery. Omitted = subscribe from now;
	// 0 = replay from the beginning.
	After      *int `json:"after"`
	AfterOther *int `json:"after_other"`
	// Buffer is the subscriber's mailbox depth in batch events; falling
	// further behind than this gets the stream evicted (0 = default).
	Buffer int `json:"buffer"`
}

// watchFeed is an opened standing query.
type watchFeed struct {
	// hello holds the tier's cursor fields of the opening event.
	hello map[string]any
	// shards is the fan-out width the journal records (0 on a worker).
	shards int
	// run delivers batches to emit — the new pairs, whether they replay
	// history, and the tier's cursor fields — until the query ends, and
	// returns the terminal reason: "" when the client left or emit gave
	// up.
	run func(emit func(pairs [][2]int, catchUp bool, marker map[string]any) bool) string
	// close releases the subscription.
	close func()
}

// watchWriteTimeout bounds each write+flush to the subscriber, so a
// stalled client cannot pin the handler goroutine past eviction.
const watchWriteTimeout = 30 * time.Second

// watch registers a standing query and streams its delta batches as
// NDJSON until the client disconnects, the dataset goes away, the
// subscriber falls too far behind, or the server shuts down:
//
//	{"event":"hello","dataset":…,"seq":…}      stream opened
//	[i,j]                                      one new pair
//	{"event":"batch","seq":…,"added":…,…}      batch delimiter + resume cursor
//	{"event":"end","reason":…}                 terminal event
func (a *api) watch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req watchRequest
	if !a.decode(w, r, &req) {
		return
	}
	m, err := parseMetric(req.Metric)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !(req.Eps > 0) {
		httpError(w, http.StatusBadRequest, "eps must be positive")
		return
	}
	feed, err := a.b.watch(r.Context(), name, req, m)
	if err != nil {
		fail(w, err)
		return
	}
	defer feed.close()

	// Journal the watch when the stream ends: ActualPairs is the delta
	// volume delivered over its whole lifetime, ElapsedNS that lifetime.
	start := time.Now()
	var delivered int64
	defer func() {
		a.record(querylog.Record{
			Kind: "watch", Dataset: name, Dataset2: req.Other,
			Eps: req.Eps, Metric: m.String(), Stream: true, Shards: feed.shards,
			EstimatedPairs: -1, ActualPairs: delivered,
			ElapsedNS: int64(time.Since(start)),
			TraceID:   traceIDOf(r), Outcome: querylog.OutcomeOK,
		})
	}()

	a.m.streamRequests.With("POST /datasets/{name}/watch").Inc()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriter(w)
	rc := http.NewResponseController(w)
	flush := func() error {
		_ = rc.SetWriteDeadline(time.Now().Add(watchWriteTimeout))
		if err := bw.Flush(); err != nil {
			return err
		}
		return rc.Flush()
	}
	hello := feed.hello
	hello["event"], hello["dataset"], hello["eps"], hello["metric"] = "hello", name, req.Eps, m.String()
	if !writeEventLine(bw, hello) || flush() != nil {
		return
	}
	reason := feed.run(func(pairs [][2]int, catchUp bool, marker map[string]any) bool {
		for _, p := range pairs {
			fmt.Fprintf(bw, "[%d,%d]\n", p[0], p[1])
		}
		delivered += int64(len(pairs))
		a.m.streamPairs.Add(int64(len(pairs)))
		marker["event"], marker["pairs"] = "batch", len(pairs)
		if catchUp {
			marker["catch_up"] = true
		}
		return writeEventLine(bw, marker) && flush() == nil
	})
	if reason != "" {
		writeEventLine(bw, map[string]any{"event": "end", "reason": reason})
		_ = flush()
	}
}

// writeEventLine renders one NDJSON event object.
func writeEventLine(bw *bufio.Writer, v any) bool {
	line, err := json.Marshal(v)
	if err != nil {
		return false
	}
	bw.Write(line)
	return bw.WriteByte('\n') == nil
}

// traceByID serves GET /debug/traces/{id}: every span retained under
// one trace ID merged into a single tree — on a coordinator stitched
// across the fleet. Like the other debug routes it is outside the
// instrument middleware, so fetching a trace mints none.
func (a *api) traceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	out, ok := a.b.stitch(r.Context(), id, trace.Collect(a.tracer.Traces(), id))
	if !ok {
		httpError(w, http.StatusNotFound, "no trace %q retained", id)
		return
	}
	writeJSON(w, out)
}
