package core

import (
	"math"
	"math/rand"
	"testing"
)

// benchMinPlusInput builds a deterministic pseudo-random min-plus instance
// shaped like a real edge step: n row groups, nCols column groups, smooth
// values with local correlation so the warm starts and suffix-minima exits
// behave the way they do on grouped edge matrices (not like white noise).
// colsT is flat column-major with stride n, matching the DP's layout.
func benchMinPlusInput(n, nCols int) (m []float64, colsT []float64) {
	rng := rand.New(rand.NewSource(42))
	m = make([]float64, n)
	for i := range m {
		m[i] = rng.Float64() * 10
	}
	colsT = make([]float64, nCols*n)
	base := make([]float64, n)
	for u := range base {
		base[u] = rng.Float64() * 5
	}
	for c := 0; c < nCols; c++ {
		col := colsT[c*n : (c+1)*n]
		for u := range col {
			// Adjacent columns share the base profile plus small jitter, the
			// correlation the scan kernels' warm starts exploit.
			col[u] = base[u] + rng.Float64()*0.5 + float64(c)*0.01
		}
	}
	return m, colsT
}

// BenchmarkScanMinPlus measures the column-sorted scan kernel, whose column
// sort is shared across rows: the kernel of short merges, stacking among
// them, and of every merge's sampled rows (DESIGN.md §5.24).
func BenchmarkScanMinPlus(b *testing.B) {
	const n, nCols = 512, 512
	m, colsT := benchMinPlusInput(n, nCols)
	sc := sortCols(colsT, n, nCols)
	mMin := minOf(m)
	best := make([]float64, nCols)
	argU := make([]int32, nCols)
	b.ResetTimer()
	scanned := 0
	for i := 0; i < b.N; i++ {
		scanned += scanMinPlus(m, mMin, colsT, sc, best, argU)
	}
	b.ReportMetric(float64(scanned)/float64(b.N), "entries/op")
}

// BenchmarkScanMinPlusRows measures the row-sorted variant: the fold vector m
// is sorted once and scanned against raw columns, the kernel of short
// Bellman steps and of every step's sampled rows.
func BenchmarkScanMinPlusRows(b *testing.B) {
	const n, nCols = 512, 512
	m, colsT := benchMinPlusInput(n, nCols)
	order := make([]int32, n)
	val := make([]float64, n)
	suf := make([]float64, n)
	var ss sortScratch
	sortAsc(m, order, val, suf, &ss)
	colMin := make([]float64, nCols)
	for c := 0; c < nCols; c++ {
		colMin[c] = minOf(colsT[c*n : (c+1)*n])
	}
	best := make([]float64, nCols)
	argU := make([]int32, nCols)
	b.ResetTimer()
	scanned := 0
	for i := 0; i < b.N; i++ {
		scanned += scanMinPlusRows(m, order, val, suf, colsT, colMin, best, argU)
	}
	b.ReportMetric(float64(scanned)/float64(b.N), "entries/op")
}

// BenchmarkScanMinPlusTwoSided measures the two-sided threshold kernel on
// the production shape of a long product: OPT-175B@32's qkt→softmax step
// folds to 1348 row groups against 352 column groups. The fold vector is
// sorted once and walked together with the shared column sort.
func BenchmarkScanMinPlusTwoSided(b *testing.B) {
	const n, nCols = 1348, 352
	m, colsT := benchMinPlusInput(n, nCols)
	sc := sortCols(colsT, n, nCols)
	order := make([]int32, n)
	val := make([]float64, n)
	suf := make([]float64, n)
	var ss sortScratch
	sortAsc(m, order, val, suf, &ss)
	best := make([]float64, nCols)
	argU := make([]int32, nCols)
	b.ResetTimer()
	scanned := 0
	for i := 0; i < b.N; i++ {
		scanned += 2 * scanMinPlusTwoSided(m, order, val, suf, colsT, sc, best, argU)
	}
	b.ReportMetric(float64(scanned)/float64(b.N), "entries/op")
}

// minOf returns the minimum of v (+Inf when empty).
func minOf(v []float64) float64 {
	lo := math.Inf(1)
	for _, x := range v {
		if x < lo {
			lo = x
		}
	}
	return lo
}
