package core

import (
	"math"
	"testing"
)

// minPlusCase is one decoded kernel instance: a fold vector m of length n
// and nCols columns in flat column-major colsT (stride n).
type minPlusCase struct {
	m     []float64
	colsT []float64
	n     int
	nCols int
}

// decodeMinPlusCase maps fuzz bytes onto an instance built to force ties:
// values come from an alphabet of a few multiples of 0.5, fold bytes ≥ 0xE0
// become +Inf, one flag makes column 0 all-equal, one shifts every finite
// value negative (the sort's linear-bucket path) and one anti-correlates
// the columns with m, which makes the scans long enough for
// minPlusProduct.run to choose the two-sided kernel. Bytes past the end of
// data come from a generator seeded by the header, so short inputs still
// reach the larger sizes.
func decodeMinPlusCase(data []byte) minPlusCase {
	seed := uint32(2463534242)
	for _, b := range data[:min(len(data), 3)] {
		seed = seed*31 + uint32(b) + 1
	}
	next := func() byte {
		if len(data) > 0 {
			b := data[0]
			data = data[1:]
			return b
		}
		seed ^= seed << 13
		seed ^= seed >> 17
		seed ^= seed << 5
		return byte(seed >> 24)
	}
	n := 1 + int(next())%48
	nCols := 1 + int(next())%9
	flags := next()
	alpha := 2 + int(flags>>4)%7
	shift := 0.0
	if flags&2 != 0 {
		shift = -2
	}
	val := func(b byte) float64 { return float64(int(b)%alpha)*0.5 + shift }
	c := minPlusCase{m: make([]float64, n), colsT: make([]float64, n*nCols), n: n, nCols: nCols}
	for u := range c.m {
		if b := next(); b >= 0xE0 {
			c.m[u] = math.Inf(1)
		} else {
			c.m[u] = float64(u%alpha) + val(b)
		}
	}
	for i := range c.colsT {
		c.colsT[i] = val(next())
		if flags&4 != 0 {
			c.colsT[i] -= float64((i % n) % alpha)
		}
	}
	if flags&1 != 0 {
		for u := 0; u < n; u++ {
			c.colsT[u] = c.colsT[0]
		}
	}
	return c
}

// minPlusKernels runs each remaining kernel on m against the first len(best)
// columns, the way minPlusProduct.run prepares them.
func minPlusKernels(c minPlusCase) map[string]func(best []float64, argU []int32) int {
	order := make([]int32, c.n)
	val := make([]float64, c.n)
	suf := make([]float64, c.n)
	var ss sortScratch
	sortAsc(c.m, order, val, suf, &ss)
	sc := sortCols(c.colsT, c.n, c.nCols)
	colMin := make([]float64, c.nCols)
	for col := range colMin {
		colMin[col] = minOf(c.colsT[col*c.n : (col+1)*c.n])
	}
	return map[string]func([]float64, []int32) int{
		"columns": func(best []float64, argU []int32) int {
			return scanMinPlus(c.m, minOf(c.m), c.colsT, sc, best, argU)
		},
		"rows": func(best []float64, argU []int32) int {
			return scanMinPlusRows(c.m, order, val, suf, c.colsT, colMin, best, argU)
		},
		"two-sided": func(best []float64, argU []int32) int {
			return scanMinPlusTwoSided(c.m, order, val, suf, c.colsT, sc, best, argU)
		},
	}
}

// checkMinPlusAnswer compares one column's answer to a brute-force scan:
// the minimum bit-equal, and a witness attaining it (any witness, or none,
// when every pair is +Inf).
func checkMinPlusAnswer(t *testing.T, label string, m, col []float64, best float64, u int32) {
	t.Helper()
	want := math.Inf(1)
	for i := range m {
		if v := m[i] + col[i]; v < want {
			want = v
		}
	}
	if math.Float64bits(best) != math.Float64bits(want) {
		t.Fatalf("%s: min %v, brute force %v", label, best, want)
	}
	if math.IsInf(want, 1) && u == -1 {
		return
	}
	if u < 0 || int(u) >= len(m) {
		t.Fatalf("%s: witness %d out of range [0,%d)", label, u, len(m))
	}
	if v := m[u] + col[u]; math.Float64bits(v) != math.Float64bits(want) {
		t.Fatalf("%s: witness %d gives %v, min is %v", label, u, v, want)
	}
}

// FuzzMinPlusKernels checks every min-plus kernel against a brute-force
// scan on tie-heavy instances: bit-equal minima, a witness attaining each
// minimum and at most n scanned entries per column (each column's count is
// the growth of the total when the kernel runs on one more column).
// minPlusProduct.run is checked the same way on several rotated rows, with
// both one-sided kernels as its short side.
func FuzzMinPlusKernels(f *testing.F) {
	f.Add([]byte{5, 3, 0x01, 1, 2, 0, 3, 0xF0, 4, 4, 4, 1, 0, 2, 2, 1, 3, 0, 0, 1})
	f.Add([]byte{11, 8, 0x62, 0xE5, 0xE6, 0xE7, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0x00})
	f.Add([]byte{7, 4, 0x33, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 9, 8, 7, 6})
	f.Add([]byte{47, 8, 0x64})
	f.Add([]byte{40, 5, 0x66})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeMinPlusCase(data)
		for name, kernel := range minPlusKernels(c) {
			best := make([]float64, c.nCols)
			argU := make([]int32, c.nCols)
			prev := 0
			for k := 1; k <= c.nCols; k++ {
				total := kernel(best[:k], argU[:k])
				if total-prev > c.n {
					t.Fatalf("%s: column %d scanned %d entries, more than n = %d", name, k-1, total-prev, c.n)
				}
				prev = total
			}
			for col := 0; col < c.nCols; col++ {
				checkMinPlusAnswer(t, name, c.m, c.colsT[col*c.n:(col+1)*c.n], best[col], argU[col])
			}
		}

		// Product rows: row r is m rotated by r.
		nRows := 1 + c.n + c.nCols
		rowOf := func(r int) []float64 {
			row := make([]float64, c.n)
			for u := range row {
				row[u] = c.m[(u+r)%c.n]
			}
			return row
		}
		for _, rowsShort := range []bool{true, false} {
			p := minPlusProduct{colsT: c.colsT, n: c.n, nCols: c.nCols}
			if rowsShort {
				p.colMin = make([]float64, c.nCols)
				for col := range p.colMin {
					p.colMin[col] = minOf(c.colsT[col*c.n : (col+1)*c.n])
				}
			} else {
				p.cols = sortCols(c.colsT, c.n, c.nCols)
			}
			best := make([][]float64, nRows)
			witness := make([][]int32, nRows)
			p.run(2, nRows, func(r int, s *classScratch) float64 {
				copy(s.m, rowOf(r))
				for u := range s.argm {
					s.argm[u] = int32(u)
				}
				return minOf(s.m)
			}, func(r int, s *classScratch) {
				best[r] = append([]float64(nil), s.best...)
				witness[r] = make([]int32, c.nCols)
				for col, u := range s.bestU {
					witness[r][col] = -1
					if u >= 0 {
						witness[r][col] = s.argm[u]
					}
				}
			})
			for r := 0; r < nRows; r++ {
				if best[r] == nil {
					t.Fatalf("product row %d never emitted", r)
				}
				for col := 0; col < c.nCols; col++ {
					checkMinPlusAnswer(t, "product", rowOf(r), c.colsT[col*c.n:(col+1)*c.n], best[r][col], witness[r][col])
				}
			}
		}
	})
}
