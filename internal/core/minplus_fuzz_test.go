package core

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// minPlusCase is one decoded kernel instance: a fold vector m of length n
// with its tie keys and nCols columns in flat column-major colsT (stride n).
type minPlusCase struct {
	m     []float64
	key   []int32
	colsT []float64
	n     int
	nCols int
}

// decodeMinPlusCase maps fuzz bytes onto an instance built to force ties:
// values come from an alphabet of a few multiples of 0.5, fold bytes ≥ 0xE0
// become +Inf, one flag makes column 0 all-equal, one shifts every finite
// value negative, one anti-correlates the columns with m, so a column's
// minimum sits away from m's, and one reverses the tie keys (otherwise each
// row index is its own key). Bytes past the end of
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
	c := minPlusCase{m: make([]float64, n), key: identityIDs(n), colsT: make([]float64, n*nCols), n: n, nCols: nCols}
	if flags&8 != 0 {
		slices.Reverse(c.key)
	}
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

// checkMinPlusAnswer compares one column's answer to a brute-force scan:
// the minimum bit-equal, and the witness attaining it with the lowest key
// (+Inf pairs included: an all-+Inf column has a witness too).
func checkMinPlusAnswer(t *testing.T, label string, m, col []float64, key []int32, best float64, u int32) {
	t.Helper()
	want, wantU := math.Inf(1), int32(-1)
	for i := range m {
		if v := m[i] + col[i]; v < want || v == want && (wantU < 0 || key[i] < key[wantU]) {
			want, wantU = v, int32(i)
		}
	}
	if math.Float64bits(best) != math.Float64bits(want) {
		t.Fatalf("%s: min %v, brute force %v", label, best, want)
	}
	if u != wantU {
		t.Fatalf("%s: witness %d, the lowest-key witness is %d (key %d)", label, u, wantU, key[wantU])
	}
}

// FuzzMinPlusKernels checks minPlusProduct.run on tie-heavy instances at
// 1, 2 and 7 workers against a serial brute-force scan of the raw values:
// every row's minima bit-equal, the lowest-key witness attaining each one,
// and a count of rows × groups × columns relaxed cells. Row r of the
// product is m rotated by r, against the case's columns as row-major groups.
func FuzzMinPlusKernels(f *testing.F) {
	f.Add([]byte{5, 3, 0x01, 1, 2, 0, 3, 0xF0, 4, 4, 4, 1, 0, 2, 2, 1, 3, 0, 0, 1})
	f.Add([]byte{11, 8, 0x62, 0xE5, 0xE6, 0xE7, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0x00})
	f.Add([]byte{7, 4, 0x33, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 9, 8, 7, 6})
	f.Add([]byte{47, 8, 0x64})
	f.Add([]byte{40, 5, 0x66})
	f.Add([]byte{5, 3, 0x09, 1, 2, 0, 3, 0xF0, 4, 4, 4, 1, 0, 2, 2, 1, 3, 0, 0, 1}) // reversed keys
	f.Add([]byte{40, 5, 0x6E})                                                      // reversed keys, anti-correlated
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeMinPlusCase(data)
		rows := make([][]float64, c.n)
		for u := range rows {
			rows[u] = make([]float64, c.nCols)
			for col := range rows[u] {
				rows[u][col] = c.colsT[col*c.n+u]
			}
		}
		nRows := 1 + c.n + c.nCols
		rowOf := func(r int) []float64 {
			row := make([]float64, c.n)
			for u := range row {
				row[u] = c.m[(u+r)%c.n]
			}
			return row
		}
		for _, workers := range []int{1, 2, 7} {
			p := minPlusProduct{rows: rows, nCols: c.nCols}
			best := make([][]float64, nRows)
			witness := make([][]int32, nRows)
			scanned := p.run(workers, nRows, func(r int, s *rowScratch) {
				copy(s.m, rowOf(r))
				copy(s.argm, c.key)
			}, func(r int, s *rowScratch) {
				best[r] = append([]float64(nil), s.best...)
				witness[r] = append([]int32(nil), s.bestU...)
			})
			if want := int64(nRows) * int64(c.n) * int64(c.nCols); scanned != want {
				t.Fatalf("workers=%d: %d cells relaxed, want %d", workers, scanned, want)
			}
			for r := 0; r < nRows; r++ {
				if best[r] == nil {
					t.Fatalf("workers=%d: product row %d never emitted", workers, r)
				}
				for col := 0; col < c.nCols; col++ {
					label := fmt.Sprintf("workers=%d row %d column %d", workers, r, col)
					checkMinPlusAnswer(t, label, rowOf(r), c.colsT[col*c.n:(col+1)*c.n], c.key, best[r][col], witness[r][col])
				}
			}
		}
	})
}
