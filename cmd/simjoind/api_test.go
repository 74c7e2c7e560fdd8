package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"simjoin/internal/cluster"
)

// newServer returns a worker: the API over a fresh in-memory local
// backend with sketches on.
func newServer() *api {
	m := newMetrics()
	return newAPI(m, newLocalBackend(m, true))
}

// newCoordServer returns a coordinator: the API over c.
func newCoordServer(c *cluster.Coordinator) *api {
	m := newMetrics()
	return newAPI(m, newClusterBackend(m, c))
}

// fuzzRoutes are the request shapes FuzzHandlers drives. GET routes take
// the fuzzed bytes as their query string, the others as their body.
// Watch is left out: it streams until the client leaves.
var fuzzRoutes = []struct{ method, path string }{
	{http.MethodPut, "/datasets/a"},
	{http.MethodPut, "/datasets/fresh"},
	{http.MethodPost, "/datasets/a/points"},
	{http.MethodPost, "/datasets/a/selfjoin"},
	{http.MethodPost, "/join"},
	{http.MethodPost, "/datasets/a/range"},
	{http.MethodPost, "/datasets/a/knn"},
	{http.MethodGet, "/datasets/a/explain"},
	{http.MethodGet, "/datasets/a"},
}

// FuzzHandlers drives (route, body) pairs through the shared handler set
// over an in-memory worker holding a 3-point dataset. Whatever the input,
// a request must not panic and must not fail server-side: malformed
// input is the caller's mistake, a 4xx.
func FuzzHandlers(f *testing.F) {
	for _, seed := range []struct {
		route uint8
		body  string
	}{
		{0, `{"points":[[],[]]}`},
		{1, `{"points":[[0.5,0.5]]}`},
		{2, `{"points":[[]]}`},
		{3, `{"eps":0.5}`},
		{3, `{"eps":0.5,"stream":true,"max_pairs":1}`},
		{4, `{"a":"a","b":"a","eps":1,"algorithm":"auto"}`},
		{5, `{"point":[0,0],"radius":2}`},
		{6, `{"point":[0,0],"k":1000000000}`},
		{7, `eps=0.5&algorithm=auto`},
		{8, `eps=0.5&metric=L1`},
	} {
		f.Add(seed.route, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		a := newServer()
		a.maxBody = 4 << 10
		h := a.handler()
		put := httptest.NewRequest(http.MethodPut, "/datasets/a", bytes.NewReader([]byte(`{"points":[[0,0],[0.5,0],[1,1]]}`)))
		pre := httptest.NewRecorder()
		if h.ServeHTTP(pre, put); pre.Code != http.StatusOK {
			t.Fatalf("preload: %d %s", pre.Code, pre.Body)
		}
		rt := fuzzRoutes[int(route)%len(fuzzRoutes)]
		req := httptest.NewRequest(rt.method, rt.path, bytes.NewReader(body))
		if rt.method == http.MethodGet {
			req = httptest.NewRequest(rt.method, rt.path, nil)
			req.URL.RawQuery = string(body)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("%s %s %q: %d %s", rt.method, rt.path, body, rec.Code, rec.Body)
		}
	})
}

// TestKNNHugeKBothTiers: a k far beyond the dataset answers with every
// point on a worker and through a coordinator, which forwards k to each
// shard.
func TestKNNHugeKBothTiers(t *testing.T) {
	ts, done := newTestServer(t)
	defer done()
	coord, _ := startCluster(t, 2, 0.25)
	pts := [][]float64{{0, 0}, {0.5, 0}, {1, 1}}
	for _, base := range []string{ts.URL, coord.URL} {
		putPoints(t, base, "a", pts)
		resp, body := doJSON(t, http.MethodPost, base+"/datasets/a/knn", json.RawMessage(`{"point":[0,0],"k":1000000000}`))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s knn: %d %v", base, resp.StatusCode, body)
		}
		if nbrs, _ := body["neighbors"].([]any); len(nbrs) != len(pts) {
			t.Fatalf("%s knn returned %v, want all %d points", base, body["neighbors"], len(pts))
		}
	}
}
