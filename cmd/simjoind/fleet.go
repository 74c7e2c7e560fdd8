package main

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"simjoin"
	"simjoin/internal/cluster"
	"simjoin/internal/live"
	"simjoin/internal/obsv"
	"simjoin/internal/obsv/trace"
)

// clusterBackend serves the API by scatter-gather over a worker fleet:
// a coordinator. Uploads are sharded with ε-boundary replication (see
// docs/CLUSTER.md); answers carry a fanout block so callers can see when
// a dead worker left them incomplete. Two-set joins and two-set watches
// are not distributed.
type clusterBackend struct {
	c *cluster.Coordinator
	m *metrics
	// fanout observes the wall time of each scatter-gather operation
	// across the fleet, labeled by operation.
	fanout *obsv.HistogramVec

	// stopping is cancelled (by stop) when graceful shutdown begins,
	// ending every standing-query watch stream with a terminal event so
	// the HTTP drain is not held open.
	stopping context.Context
	stop     context.CancelFunc

	// watchMu guards watches, the active standing-query count per
	// dataset (see tally).
	watchMu sync.Mutex
	watches map[string]int
}

// unsupported names an operation the cluster does not distribute (501).
type unsupported string

func (e unsupported) Error() string { return string(e) + " not supported in coordinator mode" }

// healthProbeTimeout bounds the worker health sweep a /metrics scrape
// triggers.
const healthProbeTimeout = 2 * time.Second

func newClusterBackend(m *metrics, c *cluster.Coordinator) *clusterBackend {
	b := &clusterBackend{c: c, m: m, watches: make(map[string]int)}
	b.stopping, b.stop = context.WithCancel(context.Background())
	m.reg.NewGaugeFunc("simjoind_live_subscriptions",
		"Standing-query subscriptions currently active.",
		func() float64 { _, total := b.tally("", 0); return float64(total) })
	b.fanout = m.reg.NewHistogramVec("simjoind_fanout_duration_seconds",
		"Scatter-gather fan-out latency across the worker fleet by operation.", "op", obsv.LatencyBuckets())
	// Health of every worker, probed at scrape time: 1 up, 0 down.
	m.reg.NewGaugeVecFunc("simjoind_worker_up",
		"Per-worker health as seen by the coordinator (1 = up).", "worker",
		func() map[string]float64 {
			ctx, cancel := context.WithTimeout(context.Background(), healthProbeTimeout)
			defer cancel()
			out := make(map[string]float64, len(c.Workers()))
			for _, wh := range c.Health(ctx) {
				v := 0.0
				if wh.OK {
					v = 1
				}
				out[wh.URL] = v
			}
			return out
		})
	// The scatter client's retry tally — rising values mean a flaky fleet.
	m.reg.NewCounterFunc("simjoind_rclient_retries_total",
		"HTTP retry attempts the coordinator's scatter client has made.",
		c.Client().Retries)
	return b
}

// observeFanout charges op's scatter wall time to the fan-out histogram.
func (b *clusterBackend) observeFanout(op string, start time.Time) {
	b.fanout.With(op).Observe(time.Since(start).Seconds())
}

// health reports each worker's health, "degraded" when any is down.
func (b *clusterBackend) health(ctx context.Context) map[string]any {
	workers := b.c.Health(ctx)
	status := "ok"
	for _, wh := range workers {
		if !wh.OK {
			status = "degraded"
		}
	}
	return map[string]any{"status": status, "datasets": len(b.c.List()), "workers": workers}
}

func (b *clusterBackend) list() []datasetInfo { return b.c.List() }

// estimate scatters one join-size estimate round over the fleet,
// charging the fan-out histogram and the per-source estimate counter.
func (b *clusterBackend) estimate(ctx context.Context, name string, eps float64, m simjoin.Metric) (*cluster.EstimateResult, error) {
	defer b.observeFanout("estimate", time.Now())
	est, err := b.c.EstimateSelfJoin(ctx, name, eps, m.String())
	if err != nil {
		return nil, err
	}
	sketched := slices.ContainsFunc(est.Shards, func(sh cluster.ShardEstimate) bool { return sh.Sketched })
	b.m.estimateRequests.With(estimateSource(sketched)).Inc()
	return est, nil
}

// describe answers from the shard map — global shape, spread over the
// fleet, standing queries watching through this coordinator — plus, with
// eps > 0, the summed predicted self-join size and each shard's own.
func (b *clusterBackend) describe(ctx context.Context, name string, eps float64, m simjoin.Metric) (map[string]any, error) {
	sm, ok := b.c.Map(name)
	if !ok {
		return nil, cluster.NotFoundError{Name: name}
	}
	watches, _ := b.tally(name, 0)
	replicas := 0
	for _, sh := range sm.Shards {
		replicas += len(sh.Global)
	}
	out := map[string]any{
		"name":    name,
		"len":     sm.Total,
		"dims":    sm.Dims,
		"margin":  sm.Margin,
		"shards":  len(sm.Shards),
		"stored":  replicas,
		"watches": watches,
	}
	if eps > 0 {
		est, err := b.estimate(ctx, name, eps, m)
		if err != nil {
			return nil, err
		}
		out["estimate"] = map[string]any{
			"eps":             eps,
			"pairs":           est.Pairs,
			"partial":         est.Partial,
			"shard_estimates": est.Shards,
		}
	}
	return out, nil
}

// explain is the distributed EXPLAIN: the summed prediction plus each
// shard's local plan, from one estimate scatter.
func (b *clusterBackend) explain(ctx context.Context, name string, opt simjoin.Options) (map[string]any, error) {
	est, err := b.estimate(ctx, name, opt.Eps, opt.Metric)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"dataset":         name,
		"eps":             opt.Eps,
		"metric":          opt.Metric.String(),
		"estimated_pairs": est.Pairs,
		"shards":          len(est.Shards),
		"partial":         est.Partial,
		"shard_estimates": est.Shards,
	}, nil
}

func (b *clusterBackend) put(ctx context.Context, name string, pts [][]float64, margin float64) (datasetInfo, error) {
	defer b.observeFanout("upload", time.Now())
	return b.c.Upload(ctx, name, pts, margin)
}

func (b *clusterBackend) remove(ctx context.Context, name string) error {
	return b.c.Delete(ctx, name)
}

// appendPoints routes the batch to its shards under the original cuts;
// each worker in turn feeds every standing query watching the dataset.
func (b *clusterBackend) appendPoints(ctx context.Context, name string, pts [][]float64) (appendResponse, error) {
	defer b.observeFanout("append", time.Now())
	res, err := b.c.Append(ctx, name, pts)
	if err != nil {
		return appendResponse{}, err
	}
	return appendResponse{datasetInfo: res.Info, Partial: &res.Partial, Failed: res.Failed}, nil
}

// price scatters an estimate round (one sketch scan per worker), so it
// runs only under an admission budget. Pricing failures never block the
// query; they just forgo admission.
func (b *clusterBackend) price(ctx context.Context, q joinQuery, budgeted bool) (int64, bool) {
	if !budgeted || q.twoSet {
		return 0, false
	}
	est, err := b.estimate(ctx, q.name, q.opt.Eps, q.opt.Metric)
	if err != nil {
		return 0, false
	}
	return est.Pairs, true
}

// join runs a distributed self-join. Streamed, pairs flow from the
// shards through the coordinator to the client as they arrive — end to
// end, no full pair set is buffered anywhere.
func (b *clusterBackend) join(ctx context.Context, q joinQuery, emit func(i, j int)) (joinRun, error) {
	if q.twoSet {
		return joinRun{}, unsupported("two-set joins")
	}
	jq := cluster.JoinQuery{
		Eps:       q.opt.Eps,
		Metric:    q.opt.Metric.String(),
		Algorithm: string(q.opt.Algorithm),
		Workers:   q.opt.Workers,
		Float32:   q.opt.Float32,
	}
	start := time.Now()
	defer b.observeFanout("selfjoin", start)
	var run joinRun
	if emit == nil && !q.count {
		res, err := b.c.SelfJoin(ctx, q.name, jq)
		if err != nil {
			return run, err
		}
		run.pairs, run.total = res.Pairs, int64(len(res.Pairs))
		run.fan = &fanout{Shards: res.Shards, Partial: res.Partial, Failed: res.Failed}
	} else {
		if emit == nil {
			emit = func(i, j int) {}
		}
		sum, err := b.c.SelfJoinEach(ctx, q.name, jq, emit)
		if err != nil {
			return run, err
		}
		run.total = sum.Pairs
		run.fan = &fanout{Shards: sum.Shards, Partial: sum.Partial, Failed: sum.Failed}
	}
	run.elapsed = time.Since(start)
	return run, nil
}

func (b *clusterBackend) rangeQuery(ctx context.Context, name string, q pointQuery, m simjoin.Metric) ([]int, *fanout, error) {
	defer b.observeFanout("range", time.Now())
	res, err := b.c.Range(ctx, name, q.Point, q.Radius, m.String())
	if err != nil {
		return nil, nil, err
	}
	return res.Indexes, &fanout{Shards: res.Shards, Partial: res.Partial, Failed: res.Failed}, nil
}

func (b *clusterBackend) knn(ctx context.Context, name string, q pointQuery, m simjoin.Metric) ([]neighbor, *fanout, error) {
	defer b.observeFanout("knn", time.Now())
	res, err := b.c.KNN(ctx, name, q.Point, q.K, m.String())
	if err != nil {
		return nil, nil, err
	}
	return res.Neighbors, &fanout{Shards: res.Shards, Partial: res.Partial, Failed: res.Failed}, nil
}

// watch opens a standing self-join over global upload-order indexes,
// fed by one watch stream per shard (see cluster.Watch). "after"
// supports exactly the two coordinator cursors — omitted (live: pairs
// created from now on) and 0 (full replay first) — because finer-grained
// resume lives on the workers, which the coordinator reconnects to with
// their own cursors automatically. Everything cluster.Watch would reject
// is checked here, before the handler commits to a streaming 200.
func (b *clusterBackend) watch(ctx context.Context, name string, req watchRequest, m simjoin.Metric) (*watchFeed, error) {
	if req.Other != "" {
		return nil, unsupported("two-set watches")
	}
	if req.After != nil && *req.After != 0 {
		return nil, badRequest{fmt.Errorf(`coordinator watches support "after" omitted (live) or 0 (full replay), got %d`, *req.After)}
	}
	sm, ok := b.c.Map(name)
	if !ok {
		return nil, cluster.NotFoundError{Name: name}
	}
	if req.Eps > sm.Margin {
		return nil, badRequest{fmt.Errorf("eps %g exceeds the dataset's shard margin %g; re-upload with a larger margin", req.Eps, sm.Margin)}
	}
	b.tally(name, 1)
	run := func(emit func([][2]int, bool, map[string]any) bool) string {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		defer context.AfterFunc(b.stopping, cancel)()
		jq := cluster.JoinQuery{Eps: req.Eps, Metric: m.String()}
		reason, err := b.c.Watch(ctx, name, jq, req.After != nil, func(ev cluster.WatchEvent) bool {
			return emit(ev.Pairs, ev.CatchUp, map[string]any{"shard": ev.Shard, "seq": ev.Seq, "added": ev.Added})
		})
		var nfe cluster.NotFoundError
		switch {
		case errors.As(err, &nfe):
			// The dataset vanished between the pre-check and the watch.
			return live.ReasonDeleted
		case err != nil && b.stopping.Err() != nil:
			return live.ReasonShutdown
		}
		// Any other error means the client went away: nobody is reading
		// an end event.
		return reason
	}
	return &watchFeed{
		hello:  map[string]any{"seq": sm.Total},
		shards: len(sm.Shards),
		run:    run,
		close:  func() { b.tally(name, -1) },
	}, nil
}

// stitch fetches every worker's retained spans of the trace and merges
// them with the coordinator's own into one distributed span tree.
func (b *clusterBackend) stitch(ctx context.Context, id string, local []trace.SpanData) (any, bool) {
	st := b.c.FetchTrace(ctx, id, local)
	return st, len(st.Spans) > 0
}

func (b *clusterBackend) shutdown() { b.stop() }

// tally moves name's count of standing queries flowing through this
// coordinator by delta, returning the new count and the total across
// all datasets.
func (b *clusterBackend) tally(name string, delta int) (n, total int) {
	b.watchMu.Lock()
	defer b.watchMu.Unlock()
	if b.watches[name] += delta; b.watches[name] <= 0 {
		delete(b.watches, name)
	}
	for _, c := range b.watches {
		total += c
	}
	return b.watches[name], total
}
