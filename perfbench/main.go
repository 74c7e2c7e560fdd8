// Command perfbench is simjoin's serving benchmark. It boots fresh
// simjoind processes on loopback ports, drives one workload from a
// closed-loop client, checks every answer against an oracle and prints
// one JSON result line. Every end-to-end timing is calibrated against a
// frozen kernel run next to it; see README.md.
//
//	perfbench -workload probe-heavy -seed 1 -seconds 15 -trace 0
//	perfbench -workload all -steady 5 -seconds 15
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// opRec is one timed operation.
type opRec struct {
	kind string
	raw  time.Duration
	t0   time.Time
	t1   time.Time
	err  error
}

// run is one benchmark run of one workload.
type run struct {
	w       *workload
	seed    uint64
	dir     string
	fl      *fleet
	cal     *calibrator
	cl      *client
	in      *inputs
	tr      *tracer // nil when untraced
	front   string  // where the client sends requests
	backend string  // the gateway's backend, in the cluster topology
	workers []string

	ops      []opRec
	setupS   []float64 // calibrated seconds per set-up
	setupRaw []float64
	nq       int       // point queries sent, to cycle through the batch
	ncycle   int       // cycles started
	rss      []float64 // the daemons' summed VmRSS after each cycle, MiB
	setupHWM []float64 // the daemons' summed VmHWM at the end of each set-up, MiB
}

func (r *run) record(kind string, tm timing, err error) {
	if tm.t1.IsZero() {
		tm.t1 = time.Now()
	}
	r.ops = append(r.ops, opRec{kind: kind, raw: tm.raw(), t0: tm.t0, t1: tm.t1, err: err})
	if r.tr != nil {
		r.tr.op(kind, tm, err)
	}
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		name    = flag.String("workload", "", "workload name, or \"all\" with -steady")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 15, "seconds of measured traffic")
		traced  = flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
		steady  = flag.Int("steady", 0, "run each workload this many times on successive seeds and print the spread of every metric")
		bin     = flag.String("bin", ".bench_build/bin/simjoind", "simjoind binary")
		out     = flag.String("out", ".bench_build/runs", "directory for run directories")
		report  = flag.String("report", "", "also write the run's report JSON to this file")
	)
	flag.Parse()
	if *steady > 0 {
		return steadiness(*name, *seed, *steady, *seconds, *bin, *out)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		return 2
	}
	res, err := runOnce(w, *seed, *seconds, *traced == 1, *bin, *out, *report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runOnce(w *workload, seed uint64, seconds int, traced bool, bin, out, reportPath string) (*result, error) {
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("simjoind binary: %w", err)
	}
	dir := filepath.Join(out, fmt.Sprintf("%s-seed%d-trace%v-%d", w.name, seed, traced, time.Now().UnixNano()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fl := &fleet{bin: bin, dir: dir}
	// Every exit path stops the daemons: normal return, error return and
	// SIGINT/SIGTERM.
	defer fl.stopAll()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sigs)
		close(sigs)
	}()
	go func() {
		if _, ok := <-sigs; ok {
			fl.stopAll()
			removeData(dir)
			os.Exit(130)
		}
	}()
	defer removeData(dir)

	in, err := prepareInputs(w, seed, filepath.Join(filepath.Dir(out), "oracle"))
	if err != nil {
		return nil, err
	}
	r := &run{w: w, seed: seed, dir: dir, fl: fl, cl: newClient(), in: in}
	r.cal = newCalibrator(fl.cpuTime)
	if traced {
		r.tr = newTracer()
	}

	// Set-up, repeated: each boots a fresh fleet; all but the last are
	// torn down again outside the clock.
	r.cal.run()
	for s := 0; s < setups; s++ {
		if s > 0 {
			fl.stopAll()
			r.cl = newClient()
			r.cal.run()
		}
		t0 := time.Now()
		if err := r.setupOnce(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		t1 := time.Now()
		r.setupHWM = append(r.setupHWM, fl.statusMB("VmHWM"))
		r.cal.run()
		r.setupS = append(r.setupS, r.cal.calibrate(t1.Sub(t0), t0, t1)/1000)
		r.setupRaw = append(r.setupRaw, t1.Sub(t0).Seconds())
	}
	setupOps := len(r.ops)

	var lay layerReport
	if traced {
		lay, err = r.tracedTraffic(time.Duration(seconds) * time.Second)
		if err != nil {
			return nil, err
		}
	} else {
		r.traffic(time.Duration(seconds) * time.Second)
	}
	r.cal.run()
	rss := fl.statusMB("VmHWM")
	fl.stopAll()

	rep := r.summarize(setupOps, rss)
	rep.Panics = scanPanics(dir)
	rep.Correct = rep.Correct && len(rep.Panics) == 0
	res := &result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.Metrics}
	if traced {
		res.Metrics = lay.metrics(rep)
		if err := r.tr.write(filepath.Join(dir, "spans.json")); err != nil {
			return nil, err
		}
	}
	if err := r.writeOps(filepath.Join(dir, "ops.json")); err != nil {
		return nil, err
	}
	b, _ := json.MarshalIndent(rep, "", "  ")
	if err := os.WriteFile(filepath.Join(dir, "report.json"), b, 0o644); err != nil {
		return nil, err
	}
	if reportPath != "" {
		if err := os.WriteFile(reportPath, b, 0o644); err != nil {
			return nil, err
		}
	}
	rep.print(os.Stdout)
	if rep.Correct {
		// Access logs of a clean run are only needed for the panic scan.
		logs, _ := filepath.Glob(filepath.Join(dir, "*.log"))
		for _, l := range logs {
			os.Remove(l)
		}
	}
	return res, nil
}

// traffic runs the closed loop for d of traffic time.
func (r *run) traffic(d time.Duration) {
	r.cal.run()
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		r.cycle()
	}
}

// removeData deletes the run's durable-storage and scratch directories.
func removeData(dir string) {
	for _, pat := range []string{"data-*", "layer-*"} {
		ms, _ := filepath.Glob(filepath.Join(dir, pat))
		for _, m := range ms {
			os.RemoveAll(m)
		}
	}
}

// kindStats is the calibrated and raw latency distribution of one kind.
type kindStats struct {
	N        int     `json:"n"`
	Failed   int     `json:"failed"`
	P50MS    float64 `json:"p50_ms"`
	RawP50MS float64 `json:"raw_p50_ms"`
	P90MS    float64 `json:"p90_ms,omitempty"` // only with ≥ 100 samples
	RawP90MS float64 `json:"raw_p90_ms,omitempty"`
	cal, raw []float64
}

// report is the full record of one run: provenance, raw and calibrated
// timings, and the gated metrics.
type report struct {
	Workload       string                `json:"workload"`
	Seed           uint64                `json:"seed"`
	N              int                   `json:"n"`
	Dims           int                   `json:"dims"`
	Eps            float64               `json:"eps"`
	ExpectedPairs  int64                 `json:"expected_pairs,omitempty"`
	NProc          int                   `json:"nproc"`
	GoVersion      string                `json:"go_version"`
	Server         json.RawMessage       `json:"server_build,omitempty"`
	KNominalMS     float64               `json:"k_nominal_ms"`
	KernelMS       float64               `json:"kernel_median_ms"`
	KernelSpread   float64               `json:"kernel_spread"`
	KernelSamples  int                   `json:"kernel_samples"`
	ServerCPUFrac  float64               `json:"server_cpu_frac"`
	Correct        bool                  `json:"correct"`
	Attempted      int                   `json:"attempted"`
	Failed         int                   `json:"failed"`
	FailedFrac     float64               `json:"failed_frac"`
	Wrong          int                   `json:"wrong"`
	Errors         []string              `json:"errors,omitempty"`
	Panics         []string              `json:"panics,omitempty"`
	SetupS         float64               `json:"setup_s"`
	RawSetupS      float64               `json:"raw_setup_s"`
	OpsPerS        float64               `json:"ops_per_s"`
	RawOpsPerS     float64               `json:"raw_ops_per_s"`
	SetupPeakMB    float64               `json:"setup_peak_rss_mb"`
	PeakRSSMB      float64               `json:"traffic_peak_rss_mb"`
	RSSMB          float64               `json:"traffic_rss_mb"`
	Kinds          map[string]*kindStats `json:"kinds"`
	Metrics        map[string]metric     `json:"metrics"`
	RawMetrics     map[string]metric     `json:"raw_metrics"`
	trafficCalSecs float64
}

func (r *run) summarize(setupOps int, rss float64) *report {
	med, spread, frac := r.cal.stats()
	rep := &report{
		Workload: r.w.name, Seed: r.seed, N: r.w.n, Dims: dims, Eps: r.w.eps,
		ExpectedPairs: r.in.truth.Total,
		NProc:         runtime.NumCPU(), GoVersion: runtime.Version(),
		Server:     serverBuild(r.fl.bin),
		KNominalMS: kNominalMS, KernelMS: med, KernelSpread: spread,
		KernelSamples: len(r.cal.samples), ServerCPUFrac: frac,
		SetupPeakMB: quantile(r.setupHWM, 0.5), PeakRSSMB: rss, RSSMB: quantile(r.rss, 0.5),
		Kinds: map[string]*kindStats{},
	}
	var rawSecs float64
	for i, op := range r.ops {
		k := rep.Kinds[op.kind]
		if k == nil {
			k = &kindStats{}
			rep.Kinds[op.kind] = k
		}
		if i >= setupOps {
			rep.Attempted++
		}
		if op.err != nil {
			k.Failed++
			if i >= setupOps {
				rep.Failed++
			}
			if isWrong(op.err) {
				rep.Wrong++
			}
			if len(rep.Errors) < 10 {
				rep.Errors = append(rep.Errors, op.err.Error())
			}
			continue
		}
		k.N++
		c := r.cal.calibrate(op.raw, op.t0, op.t1)
		k.cal = append(k.cal, c)
		k.raw = append(k.raw, float64(op.raw.Nanoseconds())/1e6)
		if i >= setupOps && op.kind != opWatchLag {
			// Watch lag overlaps its append, so it is not an operation of
			// its own in the throughput.
			rep.trafficCalSecs += c / 1000
			rawSecs += op.raw.Seconds()
		}
	}
	for _, k := range rep.Kinds {
		if k.N == 0 {
			continue
		}
		k.P50MS, k.RawP50MS = quantile(k.cal, 0.5), quantile(k.raw, 0.5)
		if k.N >= 100 {
			k.P90MS, k.RawP90MS = quantile(k.cal, 0.9), quantile(k.raw, 0.9)
		}
	}
	ops := 0
	for _, op := range r.ops[setupOps:] {
		if op.err == nil && op.kind != opWatchLag {
			ops++
		}
	}
	if rep.Attempted > 0 {
		rep.FailedFrac = float64(rep.Failed) / float64(rep.Attempted)
	}
	if rep.trafficCalSecs > 0 {
		rep.OpsPerS = float64(ops) / rep.trafficCalSecs
		rep.RawOpsPerS = float64(ops) / rawSecs
	}
	rep.SetupS, rep.RawSetupS = quantile(r.setupS, 0.5), quantile(r.setupRaw, 0.5)
	rep.Correct = rep.Wrong == 0 && r.cal.bad == 0 && frac <= maxServerCPUFrac && rep.Attempted > 0
	if r.cal.bad > 0 {
		rep.Errors = append(rep.Errors, fmt.Sprintf("calibration kernel miscounted %d times", r.cal.bad))
	}
	if frac > maxServerCPUFrac {
		rep.Errors = append(rep.Errors, fmt.Sprintf("daemons used %.0f%% of the calibration windows' time (limit %.0f%%)", frac*100, maxServerCPUFrac*100))
	}
	rep.fill(r.w)
	return rep
}

// fill computes the gated metrics and their raw counterparts.
func (rep *report) fill(w *workload) {
	p50 := func(kinds ...string) (cal, raw float64) {
		var c, rw []float64
		for _, kind := range kinds {
			if k := rep.Kinds[kind]; k != nil {
				c = append(c, k.cal...)
				rw = append(rw, k.raw...)
			}
		}
		return quantile(c, 0.5), quantile(rw, 0.5)
	}
	rep.Metrics, rep.RawMetrics = map[string]metric{}, map[string]metric{}
	set := func(name, unit string, cal, raw float64) {
		rep.Metrics[name] = metric{cal, unit}
		rep.RawMetrics[name] = metric{raw, unit}
	}
	set("setup_s", "s", rep.SetupS, rep.RawSetupS)
	set("ops_per_s", "1/s", rep.OpsPerS, rep.RawOpsPerS)
	c, raw := p50(w.primary)
	set("primary_p50_ms", "ms", c, raw)
	c, raw = p50(w.secondary)
	set("secondary_p50_ms", "ms", c, raw)
	c, raw = p50(w.query...)
	set("query_p50_ms", "ms", c, raw)
	c, raw = p50(opUpload)
	set("upload_p50_ms", "ms", c, raw)
	set("peak_rss_mb", "MB", rep.SetupPeakMB, rep.SetupPeakMB)
}

// print writes a human-readable summary ahead of the result line.
func (rep *report) print(f *os.File) {
	fmt.Fprintf(f, "# %s seed=%d N=%d d=%d eps=%g expected_pairs=%d nproc=%d go=%s\n",
		rep.Workload, rep.Seed, rep.N, rep.Dims, rep.Eps, rep.ExpectedPairs, rep.NProc, rep.GoVersion)
	fmt.Fprintf(f, "# calibration: K_nominal=%.1fms kernel median=%.2fms spread=%.3f samples=%d server_cpu_frac=%.3f\n",
		rep.KNominalMS, rep.KernelMS, rep.KernelSpread, rep.KernelSamples, rep.ServerCPUFrac)
	fmt.Fprintf(f, "# attempted=%d failed=%d wrong=%d correct=%v\n", rep.Attempted, rep.Failed, rep.Wrong, rep.Correct)
	for _, e := range rep.Errors {
		fmt.Fprintf(f, "# error: %s\n", e)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "# %-18s %12.4f %-4s (raw %.4f)\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit, rep.RawMetrics[n].Value)
	}
	kinds := make([]string, 0, len(rep.Kinds))
	for k := range rep.Kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		s := rep.Kinds[k]
		fmt.Fprintf(f, "# op %-9s n=%-5d p50=%.3fms raw_p50=%.3fms", k, s.N, s.P50MS, s.RawP50MS)
		if s.P90MS > 0 {
			fmt.Fprintf(f, " p90=%.3fms raw_p90=%.3fms", s.P90MS, s.RawP90MS)
		}
		fmt.Fprintln(f)
	}
}

// serverBuild is the daemon's build identity, from simjoind -version.
func serverBuild(bin string) json.RawMessage {
	out, err := exec.Command(bin, "-version").Output()
	if err != nil || !json.Valid(out) {
		return nil
	}
	return json.RawMessage(strings.TrimSpace(string(out)))
}

// writeOps stores every timed operation of the run — kind, start, raw
// latency and the K_nearby it was calibrated with — and every kernel
// sample, so a run's calibration can be checked after the fact.
func (r *run) writeOps(path string) error {
	type opOut struct {
		Kind    string  `json:"kind"`
		AtS     float64 `json:"at_s"`
		RawMS   float64 `json:"raw_ms"`
		KNearby float64 `json:"k_nearby_ms"`
		Error   string  `json:"error,omitempty"`
	}
	type kOut struct {
		AtS float64 `json:"at_s"`
		MS  float64 `json:"ms"`
	}
	var out struct {
		Ops    []opOut `json:"ops"`
		Kernel []kOut  `json:"kernel"`
	}
	if len(r.cal.samples) == 0 {
		return nil
	}
	origin := r.cal.samples[0].at
	for _, op := range r.ops {
		o := opOut{Kind: op.kind, AtS: op.t0.Sub(origin).Seconds(), RawMS: ms(op.raw), KNearby: r.cal.nearby(op.t0, op.t1)}
		if op.err != nil {
			o.Error = op.err.Error()
		}
		out.Ops = append(out.Ops, o)
	}
	for _, s := range r.cal.samples {
		out.Kernel = append(out.Kernel, kOut{AtS: s.at.Sub(origin).Seconds(), MS: s.ms})
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
