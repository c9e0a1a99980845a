// Min-plus products: the inner kernel of the layer DP. Each row r of a
// product folds into a vector m over the product's row groups u, with a key
// argm[u] per group (the fold's witness, a candidate index), and is then
// multiplied against the product's row-major groups:
//
//	best[c] = min_u m[u] + rows[u][c]
//
// The kernel walks the groups u in order and relaxes every column c. Ties go
// to the lowest key: an entry replaces the incumbent when it is smaller, or
// equal with a lower key. The answer is then a function of the values and
// keys alone, so a DP over a subset of the candidates that keeps the winning
// ones picks the same winners (DESIGN.md §5.38), and the rows may be spread
// over any number of workers.
package core

import "math"

// rowScratch is one worker's state for the rows of a min-plus product:
// the fold vector m with its witnesses argm, and the per-column answers
// best, bestU and the key of each witness, bestK.
type rowScratch struct {
	m, best            []float64
	argm, bestU, bestK []int32
}

func newRowScratch(n, nCols int) *rowScratch {
	f, i := make([]float64, n+nCols), make([]int32, n+2*nCols)
	return &rowScratch{m: f[:n:n], best: f[n:], argm: i[:n:n], bestU: i[n : n+nCols : n+nCols], bestK: i[n+nCols:]}
}

// scan fills best[c] = min_u m[u] + rows[u][c] and bestU[c] with the
// lowest-key witness u; an all-+Inf column gets one too.
func (s *rowScratch) scan(rows [][]float64) {
	best, bestU, bestK := s.best, s.bestU, s.bestK[:len(s.best)]
	for c := range best {
		best[c], bestU[c], bestK[c] = math.Inf(1), -1, math.MaxInt32
	}
	for u, mu := range s.m {
		ku := s.argm[u]
		row := rows[u][:len(best)]
		for c, x := range row {
			if v := mu + x; v < best[c] || v == best[c] && ku < bestK[c] {
				best[c], bestU[c], bestK[c] = v, int32(u), ku
			}
		}
	}
}

// minPlusProduct is one min-plus product of a DP step or merge: each of the
// nRows rows folds into an m over the len(rows) row groups, which is
// multiplied against the groups' rows of nCols columns.
type minPlusProduct struct {
	rows  [][]float64
	nCols int
}

// run solves every row r of the product on up to w workers: fold fills s.m
// and s.argm for row r, and s.argm doubles as the tie key; emit reads the
// answers from s.best, s.bestU and s.argm, and may keep s.best if it puts a
// fresh slice of the same length in its place. It returns the cells
// relaxed, rows × groups × columns.
func (p *minPlusProduct) run(w, nRows int, fold, emit func(r int, s *rowScratch)) (scanned int64) {
	parallelChunks(w, nRows, func(lo, hi int) {
		s := newRowScratch(len(p.rows), p.nCols)
		for r := lo; r < hi; r++ {
			fold(r, s)
			s.scan(p.rows)
			emit(r, s)
		}
	})
	return int64(nRows) * int64(len(p.rows)) * int64(p.nCols)
}
