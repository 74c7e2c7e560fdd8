package obsv

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a fixed set of metrics and renders them in the
// Prometheus text exposition format (version 0.0.4). It is deliberately
// tiny — counters, histograms and gauge callbacks, optionally labelled —
// because that is all the daemons need and the container must not grow
// external dependencies.
type Registry struct {
	mu      sync.Mutex
	metrics []renderer
}

// renderer is anything the registry can write in exposition format.
type renderer interface {
	render(w io.Writer)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(m renderer) {
	r.mu.Lock()
	r.metrics = append(r.metrics, m)
	r.mu.Unlock()
}

// Write renders every registered metric in registration order.
func (r *Registry) Write(w io.Writer) {
	r.mu.Lock()
	ms := append([]renderer(nil), r.metrics...)
	r.mu.Unlock()
	for _, m := range ms {
		m.render(w)
	}
}

// Handler serves the registry as Prometheus text.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var sb strings.Builder
		r.Write(&sb)
		_, _ = io.WriteString(w, sb.String())
	})
}

// header writes the # HELP / # TYPE preamble.
func header(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter is a monotonically increasing integer sample.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0 for counter semantics; not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// namedCounter is a registry-owned unlabeled counter.
type namedCounter struct {
	name, help string
	Counter
}

func (c *namedCounter) render(w io.Writer) {
	header(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.name, c.Value())
}

// NewCounter registers and returns an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &namedCounter{name: name, help: help}
	r.add(c)
	return &c.Counter
}

// labelled is the child map behind CounterVec and HistogramVec: one
// child per distinct tuple of label values, created on first use.
type labelled[T any] struct {
	name, help string
	labels     []string
	newChild   func() T
	mu         sync.Mutex
	children   map[string]*child[T]
}

// child is one labelled sample: its label values and its metric.
type child[T any] struct {
	values []string
	m      T
}

// newLabelled parses the comma-separated label names of a family.
func newLabelled[T any](name, help, labels string, newChild func() T) labelled[T] {
	return labelled[T]{name: name, help: help, labels: strings.Split(labels, ","),
		newChild: newChild, children: make(map[string]*child[T])}
}

// with returns the child for the given label values, creating it on
// first use. It panics when the value count does not match the family's
// label count.
func (v *labelled[T]) with(values []string) T {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obsv: %s takes %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	key := values[0]
	if len(values) > 1 {
		key = strings.Join(values, "\x00")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[key]
	if !ok {
		c = &child[T]{values: append([]string(nil), values...), m: v.newChild()}
		v.children[key] = c
	}
	return c.m
}

// sorted returns the children in label-value order, compared label by
// label; the caller holds v.mu.
func (v *labelled[T]) sorted() []*child[T] {
	out := make([]*child[T], 0, len(v.children))
	for _, c := range v.children {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return slices.Compare(out[i].values, out[j].values) < 0 })
	return out
}

// pairs renders a child's label set as `a="x",b="y"`.
func (v *labelled[T]) pairs(c *child[T]) string {
	var sb strings.Builder
	for i, l := range v.labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=\"%s\"", l, escapeLabel(c.values[i]))
	}
	return sb.String()
}

// CounterVec is a family of counters keyed by one or more label values.
type CounterVec struct {
	labelled[*Counter]
}

// NewCounterVec registers and returns a counter family; labels is a
// comma-separated list of label names ("route", "tenant,reason").
func (r *Registry) NewCounterVec(name, help, labels string) *CounterVec {
	v := &CounterVec{newLabelled(name, help, labels, func() *Counter { return &Counter{} })}
	r.add(v)
	return v
}

// With returns the counter for the given label values, one per label
// name in order, creating it on first use.
func (v *CounterVec) With(values ...string) *Counter { return v.with(values) }

// Snapshot returns the current count per child, keyed by its label
// values joined with commas.
func (v *CounterVec) Snapshot() map[string]int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]int64, len(v.children))
	for _, c := range v.children {
		out[strings.Join(c.values, ",")] = c.m.Value()
	}
	return out
}

func (v *CounterVec) render(w io.Writer) {
	header(w, v.name, v.help, "counter")
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, c := range v.sorted() {
		fmt.Fprintf(w, "%s{%s} %d\n", v.name, v.pairs(c), c.m.Value())
	}
}

// LatencyBuckets returns the fixed log-spaced bucket bounds (seconds)
// every latency histogram in the repository uses: a 1–2.5–5 ladder from
// 100 µs to 10 s. Fixed buckets keep scrapes from different builds and
// different daemons directly comparable.
func LatencyBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005,
		0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05,
		0.1, 0.25, 0.5,
		1, 2.5, 5, 10,
	}
}

// Histogram is a fixed-bucket histogram of float64 observations
// (seconds, by convention). Observations are lock-free.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf is implicit
	counts  []atomic.Int64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
	count   atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		newv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, newv) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// writeSamples renders the _bucket/_sum/_count lines under the given
// rendered label pairs (empty renders unlabeled samples).
func (h *Histogram) writeSamples(w io.Writer, name, pairs string) {
	var cum int64
	labelPrefix, labelSet := "", ""
	if pairs != "" {
		labelPrefix, labelSet = pairs+",", "{"+pairs+"}"
	}
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=\"%s\"} %d\n", name, labelPrefix, formatFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labelPrefix, cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labelSet, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labelSet, h.Count())
}

// namedHistogram is a registry-owned unlabeled histogram.
type namedHistogram struct {
	name, help string
	*Histogram
}

func (h *namedHistogram) render(w io.Writer) {
	header(w, h.name, h.help, "histogram")
	h.writeSamples(w, h.name, "")
}

// NewHistogram registers and returns an unlabeled fixed-bucket histogram.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	h := &namedHistogram{name: name, help: help, Histogram: newHistogram(bounds)}
	r.add(h)
	return h.Histogram
}

// HistogramVec is a family of fixed-bucket histograms keyed by one or
// more label values.
type HistogramVec struct {
	labelled[*Histogram]
}

// NewHistogramVec registers and returns a histogram family; labels is a
// comma-separated list of label names ("route", "experiment,arm").
func (r *Registry) NewHistogramVec(name, help, labels string, bounds []float64) *HistogramVec {
	v := &HistogramVec{newLabelled(name, help, labels, func() *Histogram { return newHistogram(bounds) })}
	r.add(v)
	return v
}

// With returns the histogram for the given label values, one per label
// name in order, creating it on first use.
func (v *HistogramVec) With(values ...string) *Histogram { return v.with(values) }

func (v *HistogramVec) render(w io.Writer) {
	header(w, v.name, v.help, "histogram")
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, c := range v.sorted() {
		c.m.writeSamples(w, v.name, v.pairs(c))
	}
}

// gaugeFunc samples a callback at scrape time.
type gaugeFunc struct {
	name, help string
	fn         func() float64
}

func (g *gaugeFunc) render(w io.Writer) {
	header(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %s\n", g.name, formatFloat(g.fn()))
}

// NewGaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.add(&gaugeFunc{name: name, help: help, fn: fn})
}

// counterFunc samples a monotonic callback at scrape time, for counters
// whose source of truth lives elsewhere (e.g. an HTTP client's retry
// tally).
type counterFunc struct {
	name, help string
	fn         func() int64
}

func (c *counterFunc) render(w io.Writer) {
	header(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.name, c.fn())
}

// NewCounterFunc registers a counter whose value is read from fn at
// scrape time. fn must be monotonically non-decreasing.
func (r *Registry) NewCounterFunc(name, help string, fn func() int64) {
	r.add(&counterFunc{name: name, help: help, fn: fn})
}

// HistogramSample is one scrape's worth of histogram state for
// NewHistogramFunc: ascending upper bounds plus per-bucket counts, with
// Counts one longer than Bounds (the last entry is the +Inf overflow
// bucket) and Sum the (possibly approximated) sum of observations.
type HistogramSample struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
}

// histogramFunc samples a full histogram from a callback at scrape
// time, for distributions whose source of truth lives elsewhere (e.g.
// runtime/metrics pause histograms).
type histogramFunc struct {
	name, help string
	fn         func() HistogramSample
}

func (h *histogramFunc) render(w io.Writer) {
	header(w, h.name, h.help, "histogram")
	s := h.fn()
	var cum uint64
	for i, b := range s.Bounds {
		if i < len(s.Counts) {
			cum += s.Counts[i]
		}
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", h.name, formatFloat(b), cum)
	}
	if len(s.Counts) > len(s.Bounds) {
		cum += s.Counts[len(s.Bounds)]
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", h.name, formatFloat(s.Sum))
	fmt.Fprintf(w, "%s_count %d\n", h.name, cum)
}

// NewHistogramFunc registers a histogram whose buckets are read from fn
// at scrape time. fn must return cumulative-consistent (monotone over
// time) per-bucket counts.
func (r *Registry) NewHistogramFunc(name, help string, fn func() HistogramSample) {
	r.add(&histogramFunc{name: name, help: help, fn: fn})
}

// gaugeVecFunc samples a label → value callback at scrape time.
type gaugeVecFunc struct {
	name, help, label string
	fn                func() map[string]float64
}

func (g *gaugeVecFunc) render(w io.Writer) {
	header(w, g.name, g.help, "gauge")
	vals := g.fn()
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s{%s=\"%s\"} %s\n", g.name, g.label, escapeLabel(k), formatFloat(vals[k]))
	}
}

// NewGaugeVecFunc registers a one-label gauge family computed at scrape
// time (e.g. per-worker health probed on demand).
func (r *Registry) NewGaugeVecFunc(name, help, label string, fn func() map[string]float64) {
	r.add(&gaugeVecFunc{name: name, help: help, label: label, fn: fn})
}
