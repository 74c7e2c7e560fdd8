package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// steadiness runs a workload (or all of them) n times on successive
// seeds, each run a separate child process as a plain invocation would
// be, and prints each metric's spread — the interquartile range over
// the median — raw and calibrated, next to its bound in BENCHMARK.json.
func steadiness(name string, seed uint64, n, seconds int, bin, out string) int {
	var ws []*workload
	for i := range workloads {
		if name == "all" || workloads[i].name == name {
			ws = append(ws, &workloads[i])
		}
	}
	if len(ws) == 0 {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", name)
		return 2
	}
	bounds := readBounds("BENCHMARK.json")
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	tmp, err := os.MkdirTemp(filepath.Dir(out), "steady-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(tmp)
	code := 0
	for _, w := range ws {
		cal, raw := map[string][]float64{}, map[string][]float64{}
		for k := 0; k < n; k++ {
			s := seed + uint64(k)
			path := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", w.name, s))
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(s), "-seconds", fmt.Sprint(seconds),
				"-bin", bin, "-out", out, "-report", path)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "%s seed %d: %v\n", w.name, s, err)
				return 1
			}
			var rep report
			b, err := os.ReadFile(path)
			if err == nil {
				err = json.Unmarshal(b, &rep)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s seed %d: reading report: %v\n", w.name, s, err)
				return 1
			}
			if !rep.Correct || rep.Failed > 0 {
				fmt.Printf("%s seed %d: correct=%v failed=%d %v\n", w.name, s, rep.Correct, rep.Failed, rep.Errors)
				code = 1
			}
			for m, v := range rep.Metrics {
				cal[m] = append(cal[m], v.Value)
				raw[m] = append(raw[m], rep.RawMetrics[m].Value)
			}
		}
		names := make([]string, 0, len(cal))
		for m := range cal {
			names = append(names, m)
		}
		sort.Strings(names)
		fmt.Printf("%s: %d runs, seeds %d..%d, %ds each\n", w.name, n, seed, seed+uint64(n)-1, seconds)
		fmt.Printf("  %-18s %12s %10s %10s %7s  %s\n", "metric", "median", "spread", "raw", "bound", "verdict")
		for _, m := range names {
			b, ok := bounds[m]
			verdict := "-"
			if ok {
				switch sp := spread(cal[m]); {
				case sp <= b/3:
					verdict = "steady"
				case sp <= b:
					verdict = "within bound"
				default:
					verdict = "TOO NOISY"
				}
			}
			fmt.Printf("  %-18s %12.4f %10.4f %10.4f %7.3f  %s\n", m, quantile(cal[m], 0.5), spread(cal[m]), spread(raw[m]), b, verdict)
		}
	}
	return code
}

// spread is the interquartile range over the median, with quartiles
// taken as Python's statistics.quantiles(xs, n=4) takes them.
func spread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		// "exclusive" method: position p·(n+1), 1-based, clamped.
		pos := p * float64(len(s)+1)
		lo := int(pos)
		switch {
		case lo < 1:
			return s[0]
		case lo >= len(s):
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	med := quantile(s, 0.5)
	if len(s) == 0 || med == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / med
}

// readBounds maps each end-to-end metric in BENCHMARK.json to its bound.
func readBounds(path string) map[string]float64 {
	out := map[string]float64{}
	b, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(b, &spec) == nil {
		for _, m := range spec.EndToEnd {
			out[m.Name] = m.Bound
		}
	}
	return out
}
