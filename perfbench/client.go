package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// client is the benchmark's one closed-loop caller. At most one request
// is in flight at a time, plus one standing watch stream.
type client struct {
	hc  *http.Client
	key string // API key, set when the front daemon is a gateway
}

func newClient() *client {
	return &client{hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
}

// errStatus is a non-2xx answer; 429s count as failures like any other.
type errStatus struct {
	code int
	body string
}

func (e errStatus) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// timing is what the client saw of one request: the wall interval from
// request sent to response fully read and decoded, the time to the
// first body byte, how long decoding took and how many bytes came back.
type timing struct {
	t0, t1 time.Time
	ttfb   time.Duration
	decode time.Duration
	bytes  int
}

func (t timing) raw() time.Duration { return t.t1.Sub(t.t0) }

func (c *client) do(method, url string, body []byte) (*http.Response, time.Time, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, time.Time{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.key != "" {
		req.Header.Set("Authorization", "Bearer "+c.key)
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, t0, err
	}
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, t0, errStatus{resp.StatusCode, strings.TrimSpace(string(b))}
	}
	return resp, t0, nil
}

// call sends one request and reads the whole body; decode parses it.
func (c *client) call(method, url string, body []byte, decode func([]byte) error) (timing, error) {
	resp, t0, err := c.do(method, url, body)
	if err != nil {
		return timing{t0: t0, t1: time.Now()}, err
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	_, _ = br.Peek(1)
	tm := timing{t0: t0, ttfb: time.Since(t0)}
	b, err := io.ReadAll(br)
	if err != nil {
		return tm, err
	}
	d0 := time.Now()
	err = decode(b)
	tm.t1 = time.Now()
	tm.decode = tm.t1.Sub(d0)
	tm.bytes = len(b)
	return tm, err
}

// pointsBody encodes an upload or append body.
func pointsBody(pts [][]float64) []byte {
	b, _ := json.Marshal(map[string]any{"points": pts})
	return b
}

// upload PUTs a dataset; the answer must report wantLen points.
func (c *client) upload(base, name string, body []byte, wantLen int) (timing, error) {
	return c.call(http.MethodPut, base+"/datasets/"+name, body, checkLen(opUpload, wantLen))
}

// appendPoints appends a batch; the answer must report the new length.
func (c *client) appendPoints(base, name string, body []byte, wantLen int) (timing, error) {
	return c.call(http.MethodPost, base+"/datasets/"+name+"/points", body, checkLen(opAppend, wantLen))
}

// checkLen decodes a dataset-info answer and checks its length.
func checkLen(kind string, want int) func([]byte) error {
	return func(b []byte) error {
		var info struct {
			Len int `json:"len"`
		}
		if err := json.Unmarshal(b, &info); err != nil {
			return fmt.Errorf("decoding %s answer: %w", kind, err)
		}
		if info.Len != want {
			return wrongAnswer{kind, fmt.Errorf("dataset has %d points, want %d", info.Len, want)}
		}
		return nil
	}
}

// joinAnswer is a self-join answer reduced to what the oracle checks.
type joinAnswer struct {
	pairs     int64 // pair lines or array entries received
	sum       uint64
	total     int64
	elapsedMS float64
	partial   bool
}

// selfJoin runs a collect self-join. The pair array is parsed by hand:
// the client's own decode cost must stay small next to the server's.
func (c *client) selfJoin(base, name string, eps float64) (joinAnswer, timing, error) {
	var a joinAnswer
	body := []byte(fmt.Sprintf(`{"eps":%g}`, eps))
	tm, err := c.call(http.MethodPost, base+"/datasets/"+name+"/selfjoin", body, func(b []byte) error {
		k := bytes.Index(b, []byte(`"pairs":[`))
		if k < 0 {
			return errors.New("answer has no pairs array")
		}
		end, err := parsePairArray(b[k+len(`"pairs":`):], &a)
		if err != nil {
			return err
		}
		rest := append(append([]byte(nil), b[:k]...), b[k+len(`"pairs":`)+end:]...)
		rest = bytes.Replace(rest, []byte("{,"), []byte("{"), 1)
		rest = bytes.Replace(rest, []byte(",,"), []byte(","), 1)
		rest = bytes.Replace(rest, []byte(",}"), []byte("}"), 1)
		return a.summary(rest)
	})
	return a, tm, err
}

func (a *joinAnswer) summary(b []byte) error {
	var s struct {
		Total     int64   `json:"total"`
		ElapsedMS float64 `json:"elapsed_ms"`
		Partial   bool    `json:"partial"`
		Truncated bool    `json:"truncated"`
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("decoding join summary: %w", err)
	}
	if s.Truncated {
		return errors.New("answer truncated")
	}
	a.total, a.elapsedMS, a.partial = s.Total, s.ElapsedMS, s.Partial
	return nil
}

// parsePairArray reads a JSON array of [i,j] pairs into a and returns
// the number of bytes consumed.
func parsePairArray(b []byte, a *joinAnswer) (int, error) {
	if len(b) == 0 || b[0] != '[' {
		return 0, errors.New("pairs: want '['")
	}
	k := 1
	for {
		for k < len(b) && (b[k] == ',' || b[k] == ' ' || b[k] == '\n') {
			k++
		}
		if k >= len(b) {
			return 0, errors.New("pairs: unterminated array")
		}
		if b[k] == ']' {
			return k + 1, nil
		}
		i, j, n, err := parsePair(b[k:])
		if err != nil {
			return 0, err
		}
		a.add(i, j)
		k += n
	}
}

// parsePair reads one "[i,j]" and returns the bytes consumed.
func parsePair(b []byte) (i, j, n int, err error) {
	if len(b) < 5 || b[0] != '[' {
		return 0, 0, 0, fmt.Errorf("pairs: bad entry %.20q", b)
	}
	k := 1
	num := func() (int, bool) {
		v, start := 0, k
		for k < len(b) && b[k] >= '0' && b[k] <= '9' {
			v = v*10 + int(b[k]-'0')
			k++
		}
		return v, k > start
	}
	var ok1, ok2 bool
	i, ok1 = num()
	if k >= len(b) || b[k] != ',' {
		return 0, 0, 0, fmt.Errorf("pairs: bad entry %.20q", b)
	}
	k++
	j, ok2 = num()
	if !ok1 || !ok2 || k >= len(b) || b[k] != ']' {
		return 0, 0, 0, fmt.Errorf("pairs: bad entry %.20q", b)
	}
	return i, j, k + 1, nil
}

func (a *joinAnswer) add(i, j int) {
	a.pairs++
	a.sum += pairHash(i, j)
}

// streamJoin runs an NDJSON self-join up to its summary line.
func (c *client) streamJoin(base, name string, eps float64) (joinAnswer, timing, error) {
	var a joinAnswer
	body := []byte(fmt.Sprintf(`{"eps":%g,"stream":true}`, eps))
	resp, t0, err := c.do(http.MethodPost, base+"/datasets/"+name+"/selfjoin", body)
	tm := timing{t0: t0}
	if err != nil {
		tm.t1 = time.Now()
		return a, tm, err
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	_, _ = br.Peek(1)
	tm.ttfb = time.Since(t0)
	// Pair lines are parsed as they arrive, interleaved with reading, so
	// a stream has no separate decode time.
	for {
		line, err := br.ReadSlice('\n')
		tm.bytes += len(line)
		if err != nil {
			tm.t1 = time.Now()
			return a, tm, fmt.Errorf("stream ended before its summary: %w", err)
		}
		if line[0] == '[' {
			i, j, _, perr := parsePair(line)
			if perr != nil {
				return a, tm, perr
			}
			a.add(i, j)
			continue
		}
		err = a.summary(line)
		tm.t1 = time.Now()
		return a, tm, err
	}
}

// pointQuery is the body of a range or kNN request.
func pointQuery(q []float64, field string, v any) []byte {
	b, _ := json.Marshal(map[string]any{"point": q, field: v})
	return b
}

func (c *client) rangeQuery(base, name string, body []byte) ([]int, timing, error) {
	var out struct {
		Indexes []int `json:"indexes"`
		Partial bool  `json:"partial"`
	}
	tm, err := c.call(http.MethodPost, base+"/datasets/"+name+"/range", body, func(b []byte) error {
		return json.Unmarshal(b, &out)
	})
	if err == nil && out.Partial {
		err = errors.New("partial range answer")
	}
	return out.Indexes, tm, err
}

type neighbor struct {
	Index int     `json:"index"`
	Dist  float64 `json:"dist"`
}

func (c *client) knnQuery(base, name string, body []byte) ([]neighbor, timing, error) {
	var out struct {
		Neighbors []neighbor `json:"neighbors"`
		Partial   bool       `json:"partial"`
	}
	tm, err := c.call(http.MethodPost, base+"/datasets/"+name+"/knn", body, func(b []byte) error {
		return json.Unmarshal(b, &out)
	})
	if err == nil && out.Partial {
		err = errors.New("partial kNN answer")
	}
	return out.Neighbors, tm, err
}

// batchEvent is one {"event":"batch"} marker of a watch stream, with the
// pairs that preceded it and when it arrived.
type batchEvent struct {
	seq  int
	ans  joinAnswer
	at   time.Time
	err  error
	done bool
}

// watch is one standing watch stream, read by its own goroutine until
// the stream ends or stop closes it.
type watch struct {
	events chan batchEvent
	body   io.Closer
	exited chan struct{}
}

// openWatch subscribes from now and returns once the hello line arrived.
func (c *client) openWatch(base, name string, eps float64) (*watch, timing, error) {
	body := []byte(fmt.Sprintf(`{"eps":%g}`, eps))
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, base+"/datasets/"+name+"/watch", bytes.NewReader(body))
	if err != nil {
		return nil, timing{}, err
	}
	if c.key != "" {
		req.Header.Set("Authorization", "Bearer "+c.key)
	}
	// The stream outlives any request timeout, so it gets its own client
	// over the same transport.
	hc := &http.Client{Transport: c.hc.Transport}
	tm := timing{t0: time.Now()}
	resp, err := hc.Do(req)
	if err != nil {
		tm.t1 = time.Now()
		return nil, tm, err
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		tm.t1 = time.Now()
		return nil, tm, errStatus{resp.StatusCode, string(b)}
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	hello, err := br.ReadSlice('\n')
	tm.t1 = time.Now()
	if err != nil || !bytes.Contains(hello, []byte(`"hello"`)) {
		resp.Body.Close()
		return nil, tm, fmt.Errorf("watch: no hello line (%v)", err)
	}
	// One event per append of the cycle is buffered at most, sized to the
	// cycle so the reader never blocks on a slow main loop.
	w := &watch{events: make(chan batchEvent, ingestAppends+1), body: resp.Body, exited: make(chan struct{})}
	go w.read(br)
	return w, tm, nil
}

func (w *watch) read(br *bufio.Reader) {
	defer close(w.exited)
	defer close(w.events)
	var cur joinAnswer
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return
		}
		if line[0] == '[' {
			i, j, _, perr := parsePair(line)
			if perr != nil {
				w.events <- batchEvent{err: perr}
				return
			}
			cur.add(i, j)
			continue
		}
		var ev struct {
			Event  string `json:"event"`
			Seq    int    `json:"seq"`
			Reason string `json:"reason"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			w.events <- batchEvent{err: err}
			return
		}
		switch ev.Event {
		case "batch":
			w.events <- batchEvent{seq: ev.Seq, ans: cur, at: time.Now()}
			cur = joinAnswer{}
		case "end":
			w.events <- batchEvent{done: true, err: fmt.Errorf("watch ended: %s", ev.Reason)}
			return
		}
	}
}

// next waits for the next batch marker.
func (w *watch) next(timeout time.Duration) batchEvent {
	select {
	case ev, ok := <-w.events:
		if !ok {
			return batchEvent{err: errors.New("watch stream closed")}
		}
		return ev
	case <-time.After(timeout):
		return batchEvent{err: errors.New("watch: no batch event in time")}
	}
}

// close ends the stream and waits for its reader to exit.
func (w *watch) close() {
	w.body.Close()
	for range w.events {
	}
	<-w.exited
}

// scrapeRuntime reads the Go runtime series every daemon exports on
// GET /metrics: GC cycles so far and the current heap size in bytes.
func (c *client) scrapeRuntime(base string) (gcCycles, heapBytes float64, err error) {
	resp, _, err := c.do(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		v, perr := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if perr != nil {
			continue
		}
		switch {
		case strings.HasSuffix(name, "_go_gc_cycles_total"):
			gcCycles = v
		case strings.HasSuffix(name, "_go_heap_bytes"):
			heapBytes = v
		}
	}
	return gcCycles, heapBytes, sc.Err()
}
