package simjoin

import (
	"math"
	"runtime"
	"sort"
	"testing"
)

func TestNeighborIndexKNN(t *testing.T) {
	ds, _ := Synthetic("uniform", 500, 4, 9)
	idx := NewNeighborIndex(ds)
	q := []float64{0.5, 0.5, 0.5, 0.5}
	got := idx.KNN(q, 7, L2)
	if len(got) != 7 {
		t.Fatalf("KNN returned %d neighbors", len(got))
	}
	// Oracle: sort all distances.
	dists := make([]float64, ds.Len())
	for i := range dists {
		var s float64
		for k, v := range ds.Point(i) {
			d := v - q[k]
			s += d * d
		}
		dists[i] = math.Sqrt(s)
	}
	sort.Float64s(dists)
	for i, n := range got {
		if math.Abs(n.Dist-dists[i]) > 1e-12 {
			t.Errorf("neighbor %d dist %g, want %g", i, n.Dist, dists[i])
		}
		if i > 0 && n.Dist < got[i-1].Dist {
			t.Error("KNN output not distance-ordered")
		}
	}
}

func TestKNNJoinPublic(t *testing.T) {
	a, _ := Synthetic("uniform", 60, 3, 10)
	b, _ := Synthetic("clustered", 300, 3, 11)
	rows, err := KNNJoin(a, b, 4, 2, L1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != a.Len() {
		t.Fatalf("%d rows, want %d", len(rows), a.Len())
	}
	for i, row := range rows {
		if len(row) != 4 {
			t.Fatalf("row %d: %d neighbors", i, len(row))
		}
		// Verify the first neighbor against a scan.
		best, bestD := -1, math.Inf(1)
		for j := 0; j < b.Len(); j++ {
			var s float64
			for k, v := range b.Point(j) {
				s += math.Abs(v - a.Point(i)[k])
			}
			if s < bestD {
				best, bestD = j, s
			}
		}
		if math.Abs(row[0].Dist-bestD) > 1e-12 {
			t.Fatalf("row %d: nearest dist %g, want %g (index %d)", i, row[0].Dist, bestD, best)
		}
	}
}

func TestKNNJoinErrors(t *testing.T) {
	a, _ := Synthetic("uniform", 5, 2, 1)
	b3, _ := Synthetic("uniform", 5, 3, 1)
	if _, err := KNNJoin(a, b3, 1, 1, L2); err == nil {
		t.Error("dims mismatch accepted")
	}
	if _, err := KNNJoin(a, NewDataset(2), 1, 1, L2); err == nil {
		t.Error("empty b accepted")
	}
	if _, err := KNNJoin(a, a, 0, 1, L2); err == nil {
		t.Error("k=0 accepted")
	}
}

// TestNeighborIndexKNNHugeK: a k far beyond the point count answers
// with every point and allocates no more than k = N would — the search
// heap is sized by the tree, not by the request. KNNJoin runs the same
// bound through the R-tree.
func TestNeighborIndexKNNHugeK(t *testing.T) {
	ds := FromPoints([][]float64{{0, 0}, {1, 0}, {0, 2}})
	idx := NewNeighborIndex(ds)
	for name, knn := range map[string]func() int{
		"NeighborIndex.KNN": func() int { return len(idx.KNN([]float64{0, 0}, 1<<20, L2)) },
		"KNNJoin": func() int {
			rows, err := KNNJoin(FromPoints([][]float64{{0, 0}}), ds, 1<<20, 1, L2)
			if err != nil {
				t.Fatal(err)
			}
			return len(rows[0])
		},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := knn()
		runtime.ReadMemStats(&after)
		if n != 3 {
			t.Errorf("%s(k=1<<20) on 3 points returned %d neighbors, want 3", name, n)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
			t.Errorf("%s(k=1<<20) on 3 points allocated %d bytes, want < 1 MiB", name, d)
		}
	}
}
