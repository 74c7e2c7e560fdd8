package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Operation kinds the client records. Every workload maps three of them
// onto the gated primary, secondary and query latencies; see README.md.
const (
	opJoin      = "join"      // collect self-join
	opStream    = "stream"    // NDJSON self-join up to the summary line
	opRange     = "range"     // range query
	opKNN       = "knn"       // kNN query
	opUpload    = "upload"    // PUT of a fresh dataset during traffic
	opSetupPut  = "setup_put" // PUT of the base dataset during set-up
	opAppend    = "append"    // POST …/points
	opWatchLag  = "watch_lag" // append sent → its batch event received
	opWatchOpen = "watch"     // watch request sent → hello line received
)

const (
	// setups is how many times a run boots, loads and warms from scratch;
	// setup_s is their median and the last one serves the traffic.
	setups = 5
	// queryBatch is how many range and kNN queries follow each join.
	queryBatch = 4
	// scratchN is the size of the fresh dataset the join workloads PUT
	// once per cycle, so every workload times uploads during traffic.
	scratchN        = 5000
	scratchVariants = 4
	// Point queries, one pair at each cluster's centroid: a range ball of
	// queryRadius (about a quarter of the cluster) and the knnK nearest
	// neighbours.
	queryRadius = 0.1
	knnK        = 20
	// ingest cycle shape: a fresh PUT, one watch, then ingestAppends
	// appends of ingestBatch points, each followed by one range query.
	ingestAppends  = 16
	ingestBatch    = 256
	ingestVariants = 4
	ingestWatchEps = 0.05
	tenantKey      = "bench-key"
)

// workload is one traffic mix over one fleet topology.
type workload struct {
	name      string
	n         int
	eps       float64
	topology  string // "worker", "worker-data" or "cluster"
	primary   string // op kinds behind the gated latencies
	secondary string
	query     []string
}

var workloads = []workload{
	{
		name: "probe-heavy", n: 50000, eps: 0.05, topology: "worker",
		primary: opJoin, secondary: opStream, query: []string{opRange, opKNN},
	},
	{
		name: "result-heavy", n: 20000, eps: 0.1, topology: "worker",
		primary: opJoin, secondary: opStream, query: []string{opRange, opKNN},
	},
	{
		name: "ingest", n: 20000, eps: ingestWatchEps, topology: "worker-data",
		primary: opAppend, secondary: opWatchLag, query: []string{opRange},
	},
	{
		name: "cluster", n: 50000, eps: 0.05, topology: "cluster",
		primary: opJoin, secondary: opStream, query: []string{opRange, opKNN},
	},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// Random streams of one seed; each input has its own.
const (
	streamBase = iota + 1
	streamIngest
	streamScratch
	streamLayer
)

// pointCheck is one prepared range or kNN query with its expected answer.
type pointCheck struct {
	kind  string
	q     []float64
	body  []byte
	rng   []int
	knn   []float64
	truth [][]float64 // the dataset the answer is checked against
}

// ingestStep is one append of an ingest cycle and what must follow it.
type ingestStep struct {
	body  []byte
	seq   int // dataset length after the append
	delta joinTruth
	query pointCheck
}

// ingestVariant is one prepared ingest cycle.
type ingestVariant struct {
	put   []byte
	steps []ingestStep
}

// inputs is everything a run sends and expects, derived from the seed
// before any clock starts.
type inputs struct {
	base    [][]float64
	truth   joinTruth
	checks  []pointCheck
	scratch [][]byte // PUT bodies of the join workloads' scratch datasets
	variant []ingestVariant
}

func prepareInputs(w *workload, seed uint64, cacheDir string) (*inputs, error) {
	in := &inputs{base: clustered(rng(seed, streamBase), w.n)}
	var err error
	in.truth, err = bruteSelfJoin(cacheDir, in.base, w.eps)
	if err != nil {
		return nil, err
	}
	for _, q := range centroids(in.base) {
		in.checks = append(in.checks, rangeCheck(in.base, q),
			pointCheck{kind: opKNN, q: q, body: pointQuery(q, "k", knnK), knn: bruteKNN(in.base, q, knnK), truth: in.base})
	}
	if w.topology == "worker-data" {
		return in, prepareIngest(w, seed, in)
	}
	sr := rng(seed, streamScratch)
	for v := 0; v < scratchVariants; v++ {
		in.scratch = append(in.scratch, pointsBody(clustered(sr, scratchN)))
	}
	return in, nil
}

// rangeCheck prepares one range query over pts with its answer.
func rangeCheck(pts [][]float64, q []float64) pointCheck {
	return pointCheck{kind: opRange, q: q, body: pointQuery(q, "radius", queryRadius), rng: bruteRange(pts, q, queryRadius), truth: pts}
}

// prepareIngest builds the cycle variants: each a fresh base dataset and
// its appends, with every watch delta and range answer precomputed.
func prepareIngest(w *workload, seed uint64, in *inputs) error {
	r := rng(seed, streamIngest)
	for v := 0; v < ingestVariants; v++ {
		base := clustered(r, w.n)
		var cv ingestVariant
		cv.put = pointsBody(base)
		cur := base
		for k := 0; k < ingestAppends; k++ {
			batch := drawAround(r, queryPoints(r, base, clusters), ingestBatch)
			delta, err := deltaTruth(cur, batch, w.eps)
			if err != nil {
				return err
			}
			cur = append(cur[:len(cur):len(cur)], batch...)
			q := queryPoints(r, batch, 1)[0]
			cv.steps = append(cv.steps, ingestStep{
				body: pointsBody(batch), seq: len(cur), delta: delta,
				query: rangeCheck(cur, q),
			})
		}
		in.variant = append(in.variant, cv)
	}
	return nil
}

// boot starts the workload's fleet and returns the front URL the client
// talks to plus the URL behind the gateway, if there is one.
func (r *run) boot() error {
	switch r.w.topology {
	case "worker":
		d, err := r.fl.start("worker")
		if err != nil {
			return err
		}
		r.front, r.workers = d.url, []string{d.url}
	case "worker-data":
		dir, err := os.MkdirTemp(r.dir, "data-")
		if err != nil {
			return err
		}
		d, err := r.fl.start("worker", "-data", dir, "-fsync", "never")
		if err != nil {
			return err
		}
		r.front, r.workers = d.url, []string{d.url}
	case "cluster":
		var urls []string
		for i := 0; i < 2; i++ {
			d, err := r.fl.start(fmt.Sprintf("worker%d", i))
			if err != nil {
				return err
			}
			urls = append(urls, d.url)
		}
		// The replication margin is the join's ε, the least that keeps
		// the distributed self-join exact.
		coord, err := r.fl.start("coordinator", "-workers", strings.Join(urls, ","), "-margin", fmt.Sprint(r.w.eps))
		if err != nil {
			return err
		}
		gw, err := r.startGateway(coord.url)
		if err != nil {
			return err
		}
		r.front, r.backend, r.workers = gw.url, coord.url, urls
		r.cl.key = tenantKey
	default:
		return fmt.Errorf("unknown topology %q", r.w.topology)
	}
	return nil
}

// startGateway boots a gateway over backend with one generously sized
// tenant, so admission never sheds the closed loop.
func (r *run) startGateway(backend string) (*daemon, error) {
	cfg := filepath.Join(r.dir, "tenants.json")
	body := fmt.Sprintf(`{"tenants":[{"name":"bench","key":%q,"rate_per_sec":100000,"burst":100000,"max_in_flight":8}]}`, tenantKey)
	if err := os.WriteFile(cfg, []byte(body), 0o644); err != nil {
		return nil, err
	}
	return r.fl.start("gateway", "-gateway", "-backends", backend, "-tenants", cfg)
}

// setupOnce boots a fresh fleet, generates and uploads the base data and
// warms lazy state up to the first timed request: the neighbour index the
// first point query builds. A self-join keeps no state between requests,
// so set-up runs none.
func (r *run) setupOnce() error {
	if err := r.boot(); err != nil {
		return err
	}
	base := clustered(rng(r.seed, streamBase), r.w.n)
	tm, err := r.cl.upload(r.front, r.w.name, pointsBody(base), len(base))
	if err != nil {
		return fmt.Errorf("uploading the base dataset: %w", err)
	}
	r.record(opSetupPut, tm, nil)
	for _, c := range r.in.checks[:2] {
		if err := r.point(c, false); err != nil {
			return fmt.Errorf("warm-up query: %w", err)
		}
	}
	return nil
}

// cycle runs one round of the workload's traffic and then samples the
// daemons' resident memory.
func (r *run) cycle() {
	defer func() { r.rss = append(r.rss, r.fl.statusMB("VmRSS")) }()
	if r.w.topology == "worker-data" {
		r.ingestCycle()
		return
	}
	r.cal.maybe()
	tm, err := r.cl.upload(r.front, r.w.name+"-scratch", r.in.scratch[r.ncycle%len(r.in.scratch)], scratchN)
	r.record(opUpload, tm, err)
	r.ncycle++
	for _, kind := range []string{opJoin, opStream} {
		r.cal.maybe()
		var a joinAnswer
		var tm timing
		var err error
		if kind == opJoin {
			a, tm, err = r.cl.selfJoin(r.front, r.w.name, r.w.eps)
		} else {
			a, tm, err = r.cl.streamJoin(r.front, r.w.name, r.w.eps)
		}
		if err == nil {
			if werr := r.in.truth.check(a); werr != nil {
				err = wrongAnswer{kind, werr}
			}
		}
		r.record(kind, tm, err)
		if err == nil && r.tr != nil {
			r.tr.joinSample(kind, tm, a)
		}
		for q := 0; q < queryBatch; q++ {
			for _, k := range []int{0, 1} {
				r.cal.maybe()
				c := r.in.checks[(r.nq*2+k)%len(r.in.checks)]
				_ = r.point(c, true)
			}
			r.nq++
		}
	}
}

// point sends one prepared range or kNN query and checks it.
func (r *run) point(c pointCheck, timed bool) error {
	var tm timing
	var err error
	if c.kind == opRange {
		var got []int
		got, tm, err = r.cl.rangeQuery(r.front, r.w.name, c.body)
		if err == nil {
			if werr := checkRange(got, c.rng); werr != nil {
				err = wrongAnswer{c.kind, werr}
			}
		}
	} else {
		var got []neighbor
		got, tm, err = r.cl.knnQuery(r.front, r.w.name, c.body)
		if err == nil {
			if werr := checkKNN(c.truth, c.q, got, c.knn); werr != nil {
				err = wrongAnswer{c.kind, werr}
			}
		}
	}
	if timed {
		r.record(c.kind, tm, err)
	}
	return err
}

// ingestCycle re-PUTs a fresh dataset, opens one watch and appends to it,
// checking every watch delta and every range answer.
func (r *run) ingestCycle() {
	v := r.in.variant[r.ncycle%len(r.in.variant)]
	r.ncycle++
	r.cal.maybe()
	tm, err := r.cl.upload(r.front, r.w.name, v.put, r.w.n)
	r.record(opUpload, tm, err)
	if err != nil {
		return
	}
	r.cal.maybe()
	wt, tm, err := r.cl.openWatch(r.front, r.w.name, r.w.eps)
	r.record(opWatchOpen, tm, err)
	if err != nil {
		return
	}
	defer wt.close()
	for _, st := range v.steps {
		r.cal.maybe()
		tm, err := r.cl.appendPoints(r.front, r.w.name, st.body, st.seq)
		r.record(opAppend, tm, err)
		if err != nil {
			return
		}
		ev := wt.next(10 * time.Second)
		lag := timing{t0: tm.t0, t1: ev.at}
		if ev.err == nil {
			switch {
			case ev.seq != st.seq:
				ev.err = wrongAnswer{opWatchLag, fmt.Errorf("batch seq %d, want %d", ev.seq, st.seq)}
			default:
				ev.ans.total = ev.ans.pairs
				if werr := st.delta.check(ev.ans); werr != nil {
					ev.err = wrongAnswer{opWatchLag, werr}
				}
			}
		} else {
			lag.t1 = time.Now()
		}
		r.record(opWatchLag, lag, ev.err)
		if ev.err != nil {
			return
		}
		r.cal.maybe()
		_ = r.point(st.query, true)
	}
}

// wrongAnswer is an answer the oracle rejected; it fails the run.
type wrongAnswer struct {
	kind string
	err  error
}

func (e wrongAnswer) Error() string { return fmt.Sprintf("wrong %s answer: %v", e.kind, e.err) }

func isWrong(err error) bool {
	var w wrongAnswer
	return errors.As(err, &w)
}
