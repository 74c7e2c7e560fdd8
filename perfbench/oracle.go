package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"

	"simjoin"
)

// pairHash maps one unordered pair to 64 bits; summing it over a pair
// set gives an order-independent checksum that also catches duplicates.
func pairHash(i, j int) uint64 {
	if i > j {
		i, j = j, i
	}
	z := uint64(i)<<32 | uint64(uint32(j))
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// joinTruth is the expected answer of one self-join.
type joinTruth struct {
	Total int64  `json:"total"`
	Sum   uint64 `json:"sum"`
}

// check compares an answer with the truth. Stream and collect answers
// must both match it, so they match each other.
func (t joinTruth) check(a joinAnswer) error {
	switch {
	case a.partial:
		return fmt.Errorf("partial answer")
	case a.total != t.Total || a.pairs != t.Total:
		return fmt.Errorf("got %d pairs (total %d), want %d", a.pairs, a.total, t.Total)
	case a.sum != t.Sum:
		return fmt.Errorf("pair-set checksum %x, want %x", a.sum, t.Sum)
	}
	return nil
}

// bruteSelfJoin is the self-join oracle: the library's brute-force
// algorithm. It is cached under cacheDir by ε and a hash of the points,
// since it costs seconds at N=50,000 and is never part of a timed phase.
func bruteSelfJoin(cacheDir string, pts [][]float64, eps float64) (joinTruth, error) {
	h := fnv.New64a()
	for _, p := range pts {
		for _, x := range p {
			_ = binary.Write(h, binary.LittleEndian, math.Float64bits(x))
		}
	}
	path := filepath.Join(cacheDir, fmt.Sprintf("n%d-eps%g-%016x.json", len(pts), eps, h.Sum64()))
	var t joinTruth
	if b, err := os.ReadFile(path); err == nil && json.Unmarshal(b, &t) == nil {
		return t, nil
	}
	// Split into halves A and B: self(A)+self(B) on one goroutine and
	// A×B on the other do equal brute-force work on the two CPUs.
	half := len(pts) / 2
	a, b := simjoin.FromPoints(pts[:half]), simjoin.FromPoints(pts[half:])
	opt := simjoin.Options{Eps: eps, Algorithm: simjoin.AlgorithmBrute}
	var cross joinTruth
	var crossErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, crossErr = simjoin.JoinEach(a, b, opt, func(i, j int) {
			cross.Total++
			cross.Sum += pairHash(i, half+j)
		})
	}()
	_, err := simjoin.SelfJoinEach(a, opt, func(i, j int) {
		t.Total++
		t.Sum += pairHash(i, j)
	})
	if err == nil {
		_, err = simjoin.SelfJoinEach(b, opt, func(i, j int) {
			t.Total++
			t.Sum += pairHash(half+i, half+j)
		})
	}
	<-done
	if err == nil {
		err = crossErr
	}
	if err != nil {
		return t, fmt.Errorf("brute-force oracle: %w", err)
	}
	t.Total += cross.Total
	t.Sum += cross.Sum
	if err := os.MkdirAll(cacheDir, 0o755); err == nil {
		b, _ := json.Marshal(t)
		_ = os.WriteFile(path, b, 0o644)
	}
	return t, nil
}

// deltaTruth is the expected watch delta of appending batch to prefix:
// the library's batch-vs-prefix join plus the batch's own self-join,
// in the global indexes the watch stream reports.
func deltaTruth(prefix, batch [][]float64, eps float64) (joinTruth, error) {
	var t joinTruth
	base := len(prefix)
	opt := simjoin.Options{Eps: eps}
	if _, err := simjoin.JoinEach(simjoin.FromPoints(prefix), simjoin.FromPoints(batch), opt, func(i, j int) {
		t.Total++
		t.Sum += pairHash(i, base+j)
	}); err != nil {
		return t, err
	}
	_, err := simjoin.SelfJoinEach(simjoin.FromPoints(batch), opt, func(i, j int) {
		t.Total++
		t.Sum += pairHash(base+i, base+j)
	})
	return t, err
}

func sqDist(a, b []float64) float64 {
	var s float64
	for d := range a {
		t := a[d] - b[d]
		s += t * t
	}
	return s
}

// bruteRange is the range oracle: every index within radius of q.
func bruteRange(pts [][]float64, q []float64, radius float64) []int {
	out := []int{}
	r2 := radius * radius
	for i, p := range pts {
		if sqDist(p, q) <= r2 {
			out = append(out, i)
		}
	}
	return out
}

func checkRange(got, want []int) error {
	g := append([]int(nil), got...)
	sort.Ints(g)
	if len(g) != len(want) {
		return fmt.Errorf("range: got %d indexes, want %d", len(g), len(want))
	}
	for i := range g {
		if g[i] != want[i] {
			return fmt.Errorf("range: index set differs at %d", i)
		}
	}
	return nil
}

// bruteKNN is the kNN oracle: the k smallest distances to q.
func bruteKNN(pts [][]float64, q []float64, k int) []float64 {
	ds := make([]float64, len(pts))
	for i, p := range pts {
		ds[i] = math.Sqrt(sqDist(p, q))
	}
	sort.Float64s(ds)
	return ds[:k]
}

// checkKNN accepts any tie order: the reported distances must be the k
// smallest, and each must be its index's true distance.
func checkKNN(pts [][]float64, q []float64, got []neighbor, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("kNN: got %d neighbours, want %d", len(got), len(want))
	}
	ds := make([]float64, len(got))
	for i, n := range got {
		if n.Index < 0 || n.Index >= len(pts) {
			return fmt.Errorf("kNN: index %d out of range", n.Index)
		}
		if !near(math.Sqrt(sqDist(pts[n.Index], q)), n.Dist) {
			return fmt.Errorf("kNN: index %d reported at %g", n.Index, n.Dist)
		}
		ds[i] = n.Dist
	}
	sort.Float64s(ds)
	for i := range ds {
		if !near(ds[i], want[i]) {
			return fmt.Errorf("kNN: %d-th distance %g, want %g", i, ds[i], want[i])
		}
	}
	return nil
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }
