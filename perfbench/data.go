package main

import (
	"math"
	"math/rand/v2"
)

// The benchmark's inputs come from its own generator, seeded by --seed,
// so a change to the repository's synthetic generators cannot change
// them. The server receives only the generated points.

const (
	dims = 8
	// clusters and sigma shape every dataset: equal-size Gaussian clusters
	// whose centres form a Latin hypercube in [0.15, 0.85]^8 — each
	// dimension has one centre per 1/clusters slice. In 8-D the centres
	// are far apart relative to sigma, and the hypercube spreads them
	// evenly along every axis, so pair counts and the coordinator's
	// shard sizes barely move between seeds.
	clusters = 20
	sigma    = 0.044
)

// rng returns the generator for one named stream of one seed.
func rng(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// clustered returns n points of the benchmark's clustered distribution.
// Points are assigned round-robin to the clusters.
func clustered(r *rand.Rand, n int) [][]float64 {
	centres := make([][]float64, clusters)
	for c := range centres {
		centres[c] = make([]float64, dims)
	}
	for d := 0; d < dims; d++ {
		slot := r.Perm(clusters)
		for c := range centres {
			centres[c][d] = 0.15 + 0.7*(float64(slot[c])+r.Float64())/clusters
		}
	}
	return drawAround(r, centres, n)
}

// drawAround draws n points round-robin around the given centres.
func drawAround(r *rand.Rand, centres [][]float64, n int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		c := centres[i%len(centres)]
		p := make([]float64, dims)
		for d := range p {
			p[d] = math.Min(1, math.Max(0, c[d]+sigma*r.NormFloat64()))
		}
		pts[i] = p
	}
	return pts
}

// queryPoints draws n query points near existing data points, so range
// and kNN queries land inside clusters like real lookups do.
func queryPoints(r *rand.Rand, data [][]float64, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		base := data[r.IntN(len(data))]
		q := make([]float64, dims)
		for d := range q {
			q[d] = base[d] + 0.01*r.NormFloat64()
		}
		out[i] = q
	}
	return out
}

// centroids returns the mean of each cluster of pts, whose points were
// assigned round-robin. Every cluster has the same size and spread, so a
// point query at a centroid does the same work on every seed.
func centroids(pts [][]float64) [][]float64 {
	out := make([][]float64, clusters)
	for c := range out {
		out[c] = make([]float64, dims)
	}
	for i, p := range pts {
		for d, x := range p {
			out[i%clusters][d] += x
		}
	}
	for c := range out {
		n := float64((len(pts) - c + clusters - 1) / clusters)
		for d := range out[c] {
			out[c][d] /= n
		}
	}
	return out
}
