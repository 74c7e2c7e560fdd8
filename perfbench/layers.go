package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"simjoin"
	"simjoin/internal/cluster"
	"simjoin/internal/live"
	"simjoin/internal/rclient"
	"simjoin/internal/store"
	"simjoin/internal/vec"
)

// span is one traced call: the benchmark records spans around its own
// calls into each layer's public functions; spans inside the program are
// not read.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"`
	Req    int       `json:"req,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	SelfMS float64   `json:"self_ms"`
}

// tracer keeps spans in memory until the run ends, plus the handler-tier
// samples derived from traced requests.
type tracer struct {
	spans []span
	req   int
	// handler-tier samples, in raw milliseconds or ratios
	joinOutside, streamOutside, ttfb, bytesPerPair, decode []float64
}

func newTracer() *tracer { return &tracer{} }

func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return len(t.spans)
}

// op records one client request as a span, with its decode as a child.
func (t *tracer) op(kind string, tm timing, err error) {
	t.req++
	name := "client." + kind
	if err != nil {
		name += ".failed"
	}
	id := t.add(name, 0, t.req, tm.t0, tm.t1)
	if tm.decode > 0 {
		t.add("client.decode", id, t.req, tm.t1.Add(-tm.decode), tm.t1)
	}
}

// call runs fn inside a span and returns its duration.
func (t *tracer) call(name string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	t.add(name, 0, 0, t0, t1)
	return t1.Sub(t0)
}

// joinSample splits one join request into server time and the time
// spent outside the join: handler, encoding, transfer and client decode.
func (t *tracer) joinSample(kind string, tm timing, a joinAnswer) {
	outside := ms(tm.raw()) - a.elapsedMS
	if kind == opStream {
		t.streamOutside = append(t.streamOutside, outside)
		t.ttfb = append(t.ttfb, ms(tm.ttfb))
	} else {
		t.joinOutside = append(t.joinOutside, outside)
	}
	if a.pairs > 0 {
		t.bytesPerPair = append(t.bytesPerPair, float64(tm.bytes)/float64(a.pairs))
	}
	if kind == opJoin {
		t.decode = append(t.decode, ms(tm.decode))
	}
}

// write stores the spans with each one's self time: its duration minus
// the time its children cover.
func (t *tracer) write(path string) error {
	child := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End.Sub(s.Start)
		}
	}
	for i := range t.spans {
		t.spans[i].SelfMS = ms(t.spans[i].End.Sub(t.spans[i].Start) - child[t.spans[i].ID])
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// perLayer lists every per-layer metric a traced run prints, in the
// order of BENCHMARK.json.
var perLayer = []struct{ name, unit string }{
	{"simjoin.selfjoin_ms", "ms"},
	{"simjoin.selfjoin_each_ms", "ms"},
	{"simjoin.build_ms", "ms"},
	{"simjoin.probe_ms", "ms"},
	{"simjoin.dist_comps", "count"},
	{"simjoin.candidates", "count"},
	{"simjoin.pairs_per_candidate", "ratio"},
	{"simjoin.plan_us", "us"},
	{"simjoind.join_outside_ms", "ms"},
	{"simjoind.stream_outside_ms", "ms"},
	{"simjoind.stream_ttfb_ms", "ms"},
	{"simjoind.resp_bytes_per_pair", "B"},
	{"client.decode_ms", "ms"},
	{"simjoind.upload_bytes_per_point", "B"},
	{"simjoin.frompoints_ms", "ms"},
	{"sketch.build_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.append_ms", "ms"},
	{"store.bytes_per_point", "B"},
	{"live.append_ms", "ms"},
	{"live.delta_pairs", "count"},
	{"simjoin.nnindex_build_ms", "ms"},
	{"simjoin.range_us", "us"},
	{"simjoin.knn_us", "us"},
	{"cluster.partition_ms", "ms"},
	{"cluster.selfjoin_ms", "ms"},
	{"cluster.range_us", "us"},
	{"cluster.knn_us", "us"},
	{"cluster.retries", "count"},
	{"gateway.hop_ms", "ms"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.heap_peak_mb", "MB"},
	{"calib.kernel_ms", "ms"},
	{"calib.spread", "ratio"},
	{"calib.server_cpu_frac", "ratio"},
	{"trace.overhead_pct", "%"},
}

// layerReport collects the per-layer values of one traced run.
type layerReport map[string]float64

// metrics assembles the per-layer result. Timings are scaled by the
// run's median kernel time, like the end-to-end ones; the calib.* values
// are raw, as they check the measurement itself.
func (l layerReport) metrics(rep *report) map[string]metric {
	l["calib.kernel_ms"] = rep.KernelMS
	l["calib.spread"] = rep.KernelSpread
	l["calib.server_cpu_frac"] = rep.ServerCPUFrac
	scale := kNominalMS / rep.KernelMS
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		v := l[m.name]
		if (m.unit == "ms" || m.unit == "us") && m.name != "calib.kernel_ms" {
			v *= scale
		}
		out[m.name] = metric{v, m.unit}
	}
	return out
}

// tracedTraffic runs the traffic untraced for half of d and traced for
// the other half, so the tracing overhead is measured inside one run,
// then calls every layer directly on the same inputs.
func (r *run) tracedTraffic(d time.Duration) (layerReport, error) {
	lay := layerReport{}
	tr := r.tr
	r.tr = nil
	start := len(r.ops)
	r.traffic(d / 2)
	mid := len(r.ops)
	r.tr = tr
	gc0, _ := r.scrapeFleet()
	var heapPeak float64
	end := time.Now().Add(d - d/2)
	for time.Now().Before(end) {
		r.cycle()
		if _, heap := r.scrapeFleet(); heap > heapPeak {
			heapPeak = heap
		}
	}
	gc1, _ := r.scrapeFleet()
	if n := len(r.ops) - mid; n > 0 {
		lay["runtime.gc_cycles_per_op"] = (gc1 - gc0) / float64(n)
	}
	lay["runtime.heap_peak_mb"] = heapPeak / (1 << 20)
	untraced := r.p50(r.w.primary, r.ops[start:mid])
	traced := r.p50(r.w.primary, r.ops[mid:])
	lay["trace.overhead_pct"] = (traced/untraced - 1) * 100
	if err := r.layerSuite(lay); err != nil {
		return nil, fmt.Errorf("layer suite: %w", err)
	}
	return lay, nil
}

// p50 is the calibrated median latency of one kind over ops.
func (r *run) p50(kind string, ops []opRec) float64 {
	var xs []float64
	for _, op := range ops {
		if op.kind == kind && op.err == nil {
			xs = append(xs, r.cal.calibrate(op.raw, op.t0, op.t1))
		}
	}
	return quantile(xs, 0.5)
}

// scrapeFleet sums GC cycles and heap bytes over every daemon.
func (r *run) scrapeFleet() (gc, heap float64) {
	r.fl.mu.Lock()
	ds := append([]*daemon(nil), r.fl.daemons...)
	r.fl.mu.Unlock()
	c := newClient()
	for _, d := range ds {
		c.key = ""
		if d.name == "gateway" {
			c.key = tenantKey
		}
		g, h, err := c.scrapeRuntime(d.url)
		if err == nil {
			gc += g
			heap += h
		}
	}
	return gc, heap
}

// layerReps is how many times each direct layer call repeats; the
// median is reported.
const layerReps = 3

func median(n int, fn func() float64) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = fn()
	}
	return quantile(xs, 0.5)
}

// layerSuite calls each layer's public functions on the run's inputs,
// each inside a span, and records what each layer did.
func (r *run) layerSuite(v layerReport) error {
	tr := r.tr
	eps := r.w.eps
	base := r.in.base
	body := pointsBody(base)
	v["simjoind.upload_bytes_per_point"] = float64(len(body)) / float64(len(base))

	// simjoind handler tier: the same join through HTTP, split into the
	// server's own elapsed_ms and everything outside it.
	name := r.w.name
	if r.w.topology == "worker-data" {
		name = "layer"
		if _, err := r.cl.upload(r.front, name, body, len(base)); err != nil {
			return err
		}
	}
	for i := 0; i < layerReps; i++ {
		for _, kind := range []string{opJoin, opStream} {
			var a joinAnswer
			var tm timing
			var err error
			if kind == opJoin {
				a, tm, err = r.cl.selfJoin(r.front, name, eps)
			} else {
				a, tm, err = r.cl.streamJoin(r.front, name, eps)
			}
			if err == nil {
				if werr := r.in.truth.check(a); werr != nil {
					err = wrongAnswer{kind, werr}
				}
			}
			r.record(kind, tm, err)
			if err != nil {
				return err
			}
			tr.joinSample(kind, tm, a)
		}
	}
	v["simjoind.join_outside_ms"] = quantile(tr.joinOutside, 0.5)
	v["simjoind.stream_outside_ms"] = quantile(tr.streamOutside, 0.5)
	v["simjoind.stream_ttfb_ms"] = quantile(tr.ttfb, 0.5)
	v["simjoind.resp_bytes_per_pair"] = quantile(tr.bytesPerPair, 0.5)
	v["client.decode_ms"] = quantile(tr.decode, 0.5)

	// Upload path and the simjoin library.
	var ds *simjoin.Dataset
	v["simjoin.frompoints_ms"] = median(layerReps, func() float64 {
		return ms(tr.call("simjoin.FromPoints", func() { ds = simjoin.FromPoints(base) }))
	})
	v["sketch.build_ms"] = median(layerReps, func() float64 {
		c := simjoin.FromPoints(base)
		return ms(tr.call("simjoin.EnableSketch", func() { c.EnableSketch() }))
	})
	ds.EnableSketch()
	v["simjoin.plan_us"] = median(20, func() float64 {
		return ms(tr.call("simjoin.PlanSelfJoin", func() { simjoin.PlanSelfJoin(ds, simjoin.L2, eps) })) * 1000
	})
	var js simjoin.JoinStats
	var res *simjoin.Result
	var err error
	v["simjoin.selfjoin_ms"] = median(layerReps, func() float64 {
		return ms(tr.call("simjoin.SelfJoin", func() { res, err = simjoin.SelfJoin(ds, simjoin.Options{Eps: eps, Stats: &js}) }))
	})
	if err != nil {
		return err
	}
	if int64(len(res.Pairs)) != r.in.truth.Total {
		return wrongAnswer{"simjoin.SelfJoin", fmt.Errorf("%d pairs, want %d", len(res.Pairs), r.in.truth.Total)}
	}
	v["simjoin.build_ms"] = ms(js.BuildTime)
	v["simjoin.probe_ms"] = ms(js.ProbeTime)
	v["simjoin.dist_comps"] = float64(js.DistComps)
	v["simjoin.candidates"] = float64(js.Candidates)
	if js.Candidates > 0 {
		v["simjoin.pairs_per_candidate"] = float64(res.Stats.Results) / float64(js.Candidates)
	}
	v["simjoin.selfjoin_each_ms"] = median(layerReps, func() float64 {
		return ms(tr.call("simjoin.SelfJoinEach", func() { _, err = simjoin.SelfJoinEach(ds, simjoin.Options{Eps: eps}, func(i, j int) {}) }))
	})

	// Neighbor index.
	var nx *simjoin.NeighborIndex
	v["simjoin.nnindex_build_ms"] = median(layerReps, func() float64 {
		return ms(tr.call("simjoin.NewNeighborIndex", func() { nx = simjoin.NewNeighborIndex(ds) }))
	})
	qs := centroids(base)
	var rs, ks []float64
	for _, q := range qs {
		rs = append(rs, ms(tr.call("NeighborIndex.Range", func() { nx.Range(q, simjoin.L2, queryRadius) }))*1000)
		ks = append(ks, ms(tr.call("NeighborIndex.KNN", func() { nx.KNN(q, knnK, simjoin.L2) }))*1000)
	}
	v["simjoin.range_us"], v["simjoin.knn_us"] = quantile(rs, 0.5), quantile(ks, 0.5)

	batches := layerBatches(r.seed, base)
	if err := r.storeLayer(v, ds, batches); err != nil {
		return err
	}
	liveLayer(v, tr, ds, batches, eps)
	if err := r.clusterLayer(v, qs); err != nil {
		return err
	}
	return r.gatewayLayer(v, name)
}

// layerBatches draws the append batches the store and live layers take.
func layerBatches(seed uint64, base [][]float64) [][][]float64 {
	r := rng(seed, streamLayer)
	out := make([][][]float64, ingestAppends)
	for i := range out {
		out[i] = drawAround(r, queryPoints(r, base, clusters), ingestBatch)
	}
	return out
}

// storeLayer writes the dataset and its appends through internal/store
// with flushes off, as the ingest worker runs.
func (r *run) storeLayer(v map[string]float64, ds *simjoin.Dataset, batches [][][]float64) error {
	dir, err := os.MkdirTemp(r.dir, "layer-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cat, err := store.Open(dir, store.Options{Sync: store.SyncNever, CompactBytes: -1})
	if err != nil {
		return err
	}
	defer cat.Close()
	ctx := context.Background()
	var perr error
	v["store.put_ms"] = ms(r.tr.call("store.Put", func() { perr = cat.Put(ctx, "layer", ds.Internal()) }))
	if perr != nil {
		return perr
	}
	var as []float64
	for _, b := range batches {
		as = append(as, ms(r.tr.call("store.Append", func() { _, perr = cat.Append(ctx, "layer", b) })))
		if perr != nil {
			return perr
		}
	}
	v["store.append_ms"] = quantile(as, 0.5)
	var bytes int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, ierr := d.Info(); ierr == nil {
				bytes += fi.Size()
			}
		}
		return nil
	})
	v["store.bytes_per_point"] = float64(bytes) / float64(ds.Len()+len(batches)*ingestBatch)
	return nil
}

// liveLayer feeds the appends through a live.Engine with one standing
// self-join subscription.
func liveLayer(v map[string]float64, tr *tracer, ds *simjoin.Dataset, batches [][][]float64, eps float64) {
	eng := live.New(live.Hooks{})
	defer eng.Shutdown()
	eng.Track("layer", ds.Internal(), eps)
	sub, err := eng.Subscribe(live.Query{Dataset: "layer", Eps: eps, Metric: vec.L2}, live.Options{})
	if err != nil {
		return
	}
	total := ds.Len()
	var as []float64
	var pairs int
	for _, b := range batches {
		total += len(b)
		as = append(as, ms(tr.call("live.Engine.Append", func() { eng.Append(context.Background(), "layer", b, total) })))
		ev := <-sub.Events()
		pairs += len(ev.Pairs)
	}
	v["live.append_ms"] = quantile(as, 0.5)
	v["live.delta_pairs"] = float64(pairs) / float64(len(batches))
}

// clusterLayer drives an in-process Coordinator against the run's
// workers: partitioning, a distributed self-join and point queries.
func (r *run) clusterLayer(v map[string]float64, qs [][]float64) error {
	rc := &rclient.Client{RetryPOST: true}
	c := cluster.New(r.workers, 0, rc)
	ctx := context.Background()
	base := r.in.base
	v["cluster.partition_ms"] = median(layerReps, func() float64 {
		return ms(r.tr.call("cluster.Partition", func() { cluster.Partition(base, r.workers, cluster.DefaultMargin) }))
	})
	const name = "layer-cluster"
	if _, err := c.Upload(ctx, name, base, 0); err != nil {
		return err
	}
	defer c.Delete(ctx, name)
	var res *cluster.JoinResult
	var err error
	v["cluster.selfjoin_ms"] = median(layerReps, func() float64 {
		return ms(r.tr.call("cluster.Coordinator.SelfJoin", func() { res, err = c.SelfJoin(ctx, name, cluster.JoinQuery{Eps: r.w.eps}) }))
	})
	if err != nil {
		return err
	}
	if int64(len(res.Pairs)) != r.in.truth.Total {
		return wrongAnswer{"cluster.SelfJoin", fmt.Errorf("%d pairs, want %d", len(res.Pairs), r.in.truth.Total)}
	}
	var rs, ks []float64
	for _, q := range qs {
		rs = append(rs, ms(r.tr.call("cluster.Coordinator.Range", func() { _, err = c.Range(ctx, name, q, queryRadius, "") }))*1000)
		if err != nil {
			return err
		}
		ks = append(ks, ms(r.tr.call("cluster.Coordinator.KNN", func() { _, err = c.KNN(ctx, name, q, knnK, "") }))*1000)
		if err != nil {
			return err
		}
	}
	v["cluster.range_us"], v["cluster.knn_us"] = quantile(rs, 0.5), quantile(ks, 0.5)
	v["cluster.retries"] = float64(rc.Retries())
	return nil
}

// gatewayLayer times the same range query through a gateway and directly
// at the gateway's backend. Workloads without a gateway get one in front
// of their worker for this measurement.
func (r *run) gatewayLayer(v map[string]float64, name string) error {
	gwURL, backend := r.front, r.backend
	if r.w.topology != "cluster" {
		gw, err := r.startGateway(r.front)
		if err != nil {
			return err
		}
		gwURL, backend = gw.url, r.front
	}
	gwc, direct := newClient(), newClient()
	gwc.key = tenantKey
	body := r.in.checks[0].body
	var viaGW, viaDirect []float64
	for i := 0; i < 40; i++ {
		_, tg, err := gwc.rangeQuery(gwURL, name, body)
		if err != nil {
			return err
		}
		_, td, err := direct.rangeQuery(backend, name, body)
		if err != nil {
			return err
		}
		r.tr.add("gateway.range", 0, 0, tg.t0, tg.t1)
		r.tr.add("direct.range", 0, 0, td.t0, td.t1)
		viaGW, viaDirect = append(viaGW, ms(tg.raw())), append(viaDirect, ms(td.raw()))
	}
	v["gateway.hop_ms"] = quantile(viaGW, 0.5) - quantile(viaDirect, 0.5)
	return nil
}
