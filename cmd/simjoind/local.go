package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"simjoin"
	"simjoin/internal/live"
	"simjoin/internal/obsv/trace"
	"simjoin/internal/store"
	"simjoin/internal/vec"
)

// localBackend serves the API in-process: a worker holding named
// datasets. The registry is guarded by a RWMutex; each dataset is an
// immutable snapshot that uploads and appends replace wholesale.
type localBackend struct {
	m    *metrics
	mu   sync.RWMutex
	sets map[string]*entry
	// st, when non-nil, is the durable storage engine every mutation tees
	// through; rec is what it replayed at boot (reported by /healthz).
	st  *store.Catalog
	rec store.RecoveryInfo
	// live is the continuous-query engine: incremental per-dataset
	// indexes plus the standing-query subscriptions watch streams serve.
	live *live.Engine
	// sketch (-sketch, default on) gives every registered dataset a
	// resident join-size sketch, maintained incrementally across appends
	// and rebuilt on recovery, so estimates never touch the raw points.
	sketch bool
}

func newLocalBackend(m *metrics, sketch bool) *localBackend {
	b := &localBackend{m: m, sets: make(map[string]*entry), live: live.New(liveHooks(m)), sketch: sketch}
	m.reg.NewGaugeFunc("simjoind_live_subscriptions",
		"Standing-query subscriptions currently active.",
		func() float64 { return float64(b.live.Subscriptions()) })
	return b
}

// liveHooks feeds the live engine's observability callbacks into the
// server's live_* metric series.
func liveHooks(m *metrics) live.Hooks {
	return live.Hooks{
		Append: func(d time.Duration, points int) { m.liveAppend.Observe(d.Seconds()) },
		Batch: func(pairs int) {
			m.liveBatches.Inc()
			m.liveDeltaPairs.Add(int64(pairs))
		},
		CatchUp:    func(pairs int) { m.liveCatchupPairs.Add(int64(pairs)) },
		Subscribed: func() { m.liveSubscribed.Inc() },
		Evicted:    func() { m.liveEvictions.Inc() },
	}
}

// entry is one registered dataset plus its lazily built query index.
// Appends are copy-on-write: a new Dataset replaces the pointer and the
// index is invalidated, so in-flight queries keep reading the immutable
// snapshot they started with.
type entry struct {
	mu sync.Mutex
	ds *simjoin.Dataset
	nn *simjoin.NeighborIndex
}

// dataset returns the current immutable snapshot.
func (e *entry) dataset() *simjoin.Dataset {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ds
}

// index returns the entry's neighbor index, building it if stale.
func (e *entry) index() *simjoin.NeighborIndex {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.nn == nil {
		e.nn = simjoin.NewNeighborIndex(e.ds)
	}
	return e.nn
}

// appendPoints grows the entry copy-on-write and returns the new length.
// With a store the batch commits through it first, so the in-memory
// snapshot and the WAL can never disagree on ordering for this dataset;
// without one the clone reserves capacity for the whole batch, so an
// append costs one bulk copy of the existing points. On error (a
// dimensionality mismatch, an IO failure) nothing changes. The
// predecessor's join-size sketch carries forward and observes the batch
// exactly once. notify runs under the entry lock after the append — the
// same lock live tracking seeds under, so the engine sees every batch
// exactly once and in order.
func (e *entry) appendPoints(ctx context.Context, st *store.Catalog, name string, pts [][]float64, notify func(pts [][]float64, total int)) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var grown *simjoin.Dataset
	if st != nil {
		d, err := st.Append(ctx, name, pts)
		if err != nil {
			return 0, err
		}
		grown = simjoin.WrapDataset(d)
	} else {
		for i, p := range pts {
			if len(p) != e.ds.Dims() {
				return 0, badRequest{fmt.Errorf("point %d has %d dims, dataset has %d", i, len(p), e.ds.Dims())}
			}
		}
		grown = e.ds.CloneWithCap(len(pts))
		for _, p := range pts {
			grown.Append(p)
		}
	}
	if sk := e.ds.Sketch(); sk != nil {
		grown.AttachSketch(sk)
		for _, p := range pts {
			sk.Observe(p)
		}
	}
	e.ds, e.nn = grown, nil
	notify(pts, e.ds.Len())
	return e.ds.Len(), nil
}

// seedLive registers the entry's current snapshot with the live engine.
// Holding the entry lock across the snapshot + Track pair means no
// append can slip between them: the mirror starts exactly at this
// snapshot and the append notifications (which run under the same lock)
// carry everything after it.
func (e *entry) seedLive(eng *live.Engine, name string, eps float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	eng.Track(name, e.ds.Internal(), eps)
}

// newEntry wraps a dataset for serving, attaching a resident join-size
// sketch when the backend runs with sketches enabled: one pass over the
// points here, O(1) per point on every later append.
func (b *localBackend) newEntry(ds *simjoin.Dataset) *entry {
	if b.sketch {
		ds.EnableSketch()
	}
	return &entry{ds: ds}
}

// get fetches a dataset entry by name.
func (b *localBackend) get(name string) (*entry, error) {
	b.mu.RLock()
	e, ok := b.sets[name]
	b.mu.RUnlock()
	if !ok {
		return nil, live.UnknownDatasetError{Name: name}
	}
	return e, nil
}

func (b *localBackend) health(context.Context) map[string]any {
	b.mu.RLock()
	n := len(b.sets)
	b.mu.RUnlock()
	out := map[string]any{"status": "ok", "datasets": n}
	if b.st != nil {
		out["persistence"] = map[string]any{
			"enabled":            true,
			"dir":                b.st.Dir(),
			"wal_bytes":          b.st.WALBytes(),
			"recovered_datasets": len(b.rec.Datasets),
			"replayed_records":   b.rec.Records(),
			"truncated_tails":    b.rec.TruncatedTails(),
			"quarantined":        len(b.rec.Quarantined),
		}
	}
	return out
}

func (b *localBackend) list() []datasetInfo {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]datasetInfo, 0, len(b.sets))
	for name, e := range b.sets {
		ds := e.dataset()
		out = append(out, datasetInfo{Name: name, Len: ds.Len(), Dims: ds.Dims()})
	}
	return out
}

// describe adds the dataset's durable footprint, live-engine state and
// sketch metadata to its shape.
func (b *localBackend) describe(_ context.Context, name string, eps float64, m simjoin.Metric) (map[string]any, error) {
	e, err := b.get(name)
	if err != nil {
		return nil, err
	}
	ds := e.dataset()
	out := map[string]any{"name": name, "len": ds.Len(), "dims": ds.Dims(), "live": b.live.Stats(name)}
	if b.st != nil {
		if wb, ok := b.st.DatasetWALBytes(name); ok {
			out["wal_bytes"] = wb
		}
	}
	if sk := ds.Sketch(); sk != nil {
		out["sketch"] = map[string]any{
			"points":        sk.Points(),
			"reservoir":     sk.Reservoir(),
			"sampled_pairs": sk.SampledPairs(),
		}
	}
	if eps > 0 {
		pl := simjoin.PlanSelfJoin(ds, m, eps)
		b.m.estimateRequests.With(estimateSource(pl.Sketched)).Inc()
		out["estimate"] = map[string]any{
			"eps":         eps,
			"metric":      m.String(),
			"algorithm":   string(pl.Algorithm),
			"pairs":       pl.EstimatedPairs,
			"selectivity": pl.Selectivity,
			"sketched":    pl.Sketched,
		}
	}
	return out, nil
}

// explain is the library's EXPLAIN.
func (b *localBackend) explain(_ context.Context, name string, opt simjoin.Options) (map[string]any, error) {
	e, err := b.get(name)
	if err != nil {
		return nil, err
	}
	ex, err := simjoin.Explain(e.dataset(), opt)
	if err != nil {
		return nil, badRequest{err}
	}
	b.m.estimateRequests.With(estimateSource(ex.Plan.Sketched)).Inc()
	return map[string]any{
		"dataset":   name,
		"eps":       ex.Eps,
		"metric":    ex.Metric.String(),
		"requested": string(ex.Requested),
		"algorithm": string(ex.Algorithm),
		"plan": map[string]any{
			"algorithm":       string(ex.Plan.Algorithm),
			"estimated_pairs": ex.Plan.EstimatedPairs,
			"selectivity":     ex.Plan.Selectivity,
			"sketched":        ex.Plan.Sketched,
		},
	}, nil
}

func (b *localBackend) put(ctx context.Context, name string, pts [][]float64, _ float64) (datasetInfo, error) {
	return b.register(ctx, name, simjoin.FromPoints(pts))
}

// register serves ds under name, persisting it first when the worker is
// durable.
func (b *localBackend) register(ctx context.Context, name string, ds *simjoin.Dataset) (datasetInfo, error) {
	if b.st != nil {
		if err := b.st.Put(ctx, name, ds.Internal()); err != nil {
			return datasetInfo{}, err
		}
	}
	b.mu.Lock()
	_, replaced := b.sets[name]
	b.sets[name] = b.newEntry(ds)
	b.mu.Unlock()
	if replaced {
		// Standing queries were registered against the old incarnation's
		// indexes; end their streams cleanly rather than silently
		// switching datasets under them.
		b.live.Drop(name, live.ReasonReplaced)
	}
	return datasetInfo{Name: name, Len: ds.Len(), Dims: ds.Dims()}, nil
}

func (b *localBackend) remove(ctx context.Context, name string) error {
	b.mu.Lock()
	_, ok := b.sets[name]
	delete(b.sets, name)
	b.mu.Unlock()
	if !ok {
		return live.UnknownDatasetError{Name: name}
	}
	// In-flight watch streams for this dataset end with a terminal
	// {"event":"end","reason":"dataset deleted"} line, not a dropped
	// connection.
	b.live.Drop(name, live.ReasonDeleted)
	if b.st != nil {
		// The entry is gone from memory; an IO failure removing its files
		// surfaces rather than pretending the delete is durable.
		if err := b.st.Delete(ctx, name); err != nil && !errors.Is(err, store.ErrNotFound) {
			return err
		}
	}
	return nil
}

func (b *localBackend) appendPoints(ctx context.Context, name string, pts [][]float64) (appendResponse, error) {
	e, err := b.get(name)
	if err != nil {
		return appendResponse{}, err
	}
	n, err := e.appendPoints(ctx, b.st, name, pts, func(pts [][]float64, total int) {
		b.live.Append(ctx, name, pts, total)
	})
	if err != nil {
		return appendResponse{}, err
	}
	return appendResponse{datasetInfo: datasetInfo{Name: name, Len: n, Dims: len(pts[0])}}, nil
}

// operands resolves q's datasets to their current snapshots; db is nil
// for a self-join.
func (b *localBackend) operands(q joinQuery) (da, db *simjoin.Dataset, err error) {
	ea, err := b.get(q.name)
	if err != nil {
		return nil, nil, err
	}
	if !q.twoSet {
		return ea.dataset(), nil, nil
	}
	eb, err := b.get(q.other)
	if err != nil {
		return nil, nil, err
	}
	da, db = ea.dataset(), eb.dataset()
	if da.Dims() != db.Dims() {
		return nil, nil, badRequest{fmt.Errorf("dimensionality mismatch: %d vs %d", da.Dims(), db.Dims())}
	}
	return da, db, nil
}

// price asks the planner. Without a budget it only prices datasets whose
// resident sketches make the estimate free.
func (b *localBackend) price(_ context.Context, q joinQuery, budgeted bool) (int64, bool) {
	da, db, err := b.operands(q)
	if err != nil || !budgeted && (da.Sketch() == nil || db != nil && db.Sketch() == nil) {
		return 0, false
	}
	var pl simjoin.Plan
	if db == nil {
		pl = simjoin.PlanSelfJoin(da, q.opt.Metric, q.opt.Eps)
	} else {
		pl = simjoin.PlanJoin(da, db, q.opt.Metric, q.opt.Eps)
	}
	b.m.estimateRequests.With(estimateSource(pl.Sketched)).Inc()
	return pl.EstimatedPairs, true
}

// join runs q in-process.
func (b *localBackend) join(_ context.Context, q joinQuery, emit func(i, j int)) (joinRun, error) {
	da, db, err := b.operands(q)
	if err != nil {
		return joinRun{}, err
	}
	var run joinRun
	opt := q.opt
	opt.Stats = &run.stats
	if emit != nil {
		var st simjoin.Stats
		if db == nil {
			st, err = simjoin.SelfJoinEach(da, opt, emit)
		} else {
			st, err = simjoin.JoinEach(da, db, opt, emit)
		}
		run.total, run.elapsed = st.Results, st.Elapsed
	} else {
		collect := !q.count
		opt.CollectPairs = &collect
		var res *simjoin.Result
		if db == nil {
			res, err = simjoin.SelfJoin(da, opt)
		} else {
			res, err = simjoin.Join(da, db, opt)
		}
		if err == nil {
			run.total, run.elapsed = res.Stats.Results, res.Stats.Elapsed
			run.pairs = make([][2]int, len(res.Pairs))
			for i, p := range res.Pairs {
				run.pairs[i] = [2]int{p.I, p.J}
			}
		}
	}
	if err != nil {
		return joinRun{}, badRequest{err}
	}
	return run, nil
}

// probe resolves the entry a point query runs against, checking the
// query point's dimensionality.
func (b *localBackend) probe(name string, point []float64) (*entry, error) {
	e, err := b.get(name)
	if err != nil {
		return nil, err
	}
	if d := e.dataset().Dims(); len(point) != d {
		return nil, badRequest{fmt.Errorf("query has %d dims, dataset has %d", len(point), d)}
	}
	return e, nil
}

func (b *localBackend) rangeQuery(_ context.Context, name string, q pointQuery, m simjoin.Metric) ([]int, *fanout, error) {
	e, err := b.probe(name, q.Point)
	if err != nil {
		return nil, nil, err
	}
	return e.index().Range(q.Point, m, q.Radius), nil, nil
}

func (b *localBackend) knn(_ context.Context, name string, q pointQuery, m simjoin.Metric) ([]neighbor, *fanout, error) {
	e, err := b.probe(name, q.Point)
	if err != nil {
		return nil, nil, err
	}
	nbrs := e.index().KNN(q.Point, q.K, m)
	out := make([]neighbor, len(nbrs))
	for i, n := range nbrs {
		out[i] = neighbor(n)
	}
	return out, nil, nil
}

// watch subscribes a standing query to the live engine, seeding live
// tracking of each dataset first.
func (b *localBackend) watch(ctx context.Context, name string, req watchRequest, m simjoin.Metric) (*watchFeed, error) {
	e, err := b.get(name)
	if err != nil {
		return nil, err
	}
	var other *entry
	if req.Other != "" {
		if other, err = b.get(req.Other); err != nil {
			return nil, err
		}
	}
	// Seed under each entry's lock (never both at once), so the mirrors
	// start at snapshots consistent with the append notifications that
	// follow.
	e.seedLive(b.live, name, req.Eps)
	if other != nil {
		other.seedLive(b.live, req.Other, req.Eps)
	}
	vm, _ := vec.ParseMetric(m.String()) // a Metric's name always parses
	sub, err := b.live.Subscribe(
		live.Query{Dataset: name, Other: req.Other, Eps: req.Eps, Metric: vm},
		live.Options{Buffer: req.Buffer, After: req.After, AfterOther: req.AfterOther},
	)
	if err != nil {
		return nil, err
	}
	hello := map[string]any{"seq": sub.BaseSeq()}
	if req.Other != "" {
		hello["other"], hello["seq_other"] = req.Other, sub.BaseSeqOther()
	}
	run := func(emit func([][2]int, bool, map[string]any) bool) string {
		for {
			select {
			case ev, open := <-sub.Events():
				if !open {
					return sub.Reason()
				}
				marker := map[string]any{"seq": ev.Seq, "added": ev.Added}
				if req.Other != "" {
					marker["seq_other"] = ev.SeqOther
				}
				if !emit(ev.Pairs, ev.CatchUp, marker) {
					return ""
				}
			case <-ctx.Done():
				return ""
			}
		}
	}
	return &watchFeed{hello: hello, run: run, close: func() { b.live.Unsubscribe(sub.ID()) }}, nil
}

// stitch is the local half of distributed stitching.
func (b *localBackend) stitch(_ context.Context, id string, local []trace.SpanData) (any, bool) {
	return trace.Stitch(id, local), len(local) > 0
}

func (b *localBackend) shutdown() { b.live.Shutdown() }
