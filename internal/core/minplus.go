// Sorted-scan min-plus: the inner kernel of the factored DP. For a row
// vector m against a set of columns it computes
//
//	best[c] = min_u m[u] + colsT[c][u]
//
// with three exact kernels that differ only in scan order:
//
//   - scanMinPlus walks each COLUMN in ascending value order and exits via
//     the column's suffix minima plus the global min of m. The order is
//     independent of m, so it is built ONCE per product (sortCols) and
//     shared read-only by every row multiplied against it.
//   - scanMinPlusRows walks the sorted M vector (one sort per row) and
//     exits via m's suffix minima plus each column's minimum.
//   - scanMinPlusTwoSided walks both orders together (Fagin's threshold
//     algorithm) and exits via the sum of the two suffix minima.
//
// minPlusProduct.run picks the kernel per product from a fixed sample of
// the product's rows: the counts depend only on the values and the row
// count, so the choice is deterministic.
//
// Exactness: suf[i] is an exact suffix minimum of the ordered values, and
// IEEE addition is monotone (a ≥ b, c ≥ d ⟹ a+c ≥ b+d), so when
// suf[i] + otherMin ≥ best every remaining pair is ≥ best and cannot
// strictly improve. The two-sided exit is the same argument with a tighter
// other side: an index not yet visited from either side sits at position
// ≥ i in both orders, so its pair is ≥ sufM[i] + sufCol[i]. The ordering
// itself only needs to be APPROXIMATELY sorted to make the exit early —
// correctness never depends on it, and results are independent of worker
// count.
package core

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// sortBuckets is the counting-sort resolution used to order values.
// Buckets are cut in IEEE bit space: for non-negative finite floats the bit
// pattern is monotone in the value, and bit-space cuts spread heavy-tailed
// cost distributions where linear cuts pile everything into one bucket.
const (
	sortBuckets    = 2048
	sortBucketsLog = 11
)

// sortScratch is the per-worker counting-sort state.
type sortScratch struct {
	cnt  [sortBuckets + 1]int32
	keys []int32
}

// bucketFunc returns a monotone bucket index in [0, nb) for values in
// [lo, hi]. Degenerate ranges (infinities, all-equal) collapse to bucket 0 —
// the suffix-minima exit keeps the scans exact regardless.
func bucketFunc(lo, hi float64, nb int, logB int) func(float64) int {
	if lo >= 0 && !math.Signbit(lo) && !math.IsInf(hi, 1) {
		blo := math.Float64bits(lo)
		shift := 0
		if l := bits.Len64(math.Float64bits(hi) - blo); l > logB {
			shift = l - logB // span>>shift < nb
		}
		return func(x float64) int {
			k := int((math.Float64bits(x) - blo) >> shift)
			if k >= nb {
				return nb - 1
			}
			return k
		}
	}
	if hi > lo && !math.IsInf(hi, 1) && !math.IsInf(lo, -1) {
		// Negative values: linear cuts (still monotone).
		inv := float64(nb) / (hi - lo)
		return func(x float64) int {
			f := (x - lo) * inv
			if f > 0 {
				if f >= float64(nb) {
					return nb - 1
				}
				return int(f)
			}
			return 0
		}
	}
	return func(float64) int { return 0 }
}

// sortAsc bucket-orders m ascending (stable: ties and same-bucket values
// keep ascending index order — deterministic) and fills order, val and the
// exact suffix minima suf. All three must have len(m).
func sortAsc(m []float64, order []int32, val, suf []float64, ss *sortScratch) {
	n := len(m)
	lo, hi := m[0], m[0]
	for _, x := range m[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if cap(ss.keys) < n {
		ss.keys = make([]int32, n)
	}
	keys := ss.keys[:n]
	// Bucket count adapts to the input: small inputs pay a small counter
	// reset. The sort only has to be roughly ordered, so ~2 buckets per
	// element is plenty.
	nb, logB := sortBuckets, sortBucketsLog
	for nb > 256 && nb > 2*n {
		nb >>= 1
		logB--
	}
	// Bucket keys in one specialized pass (the common bit-space case stays
	// free of indirect calls).
	if lo >= 0 && !math.Signbit(lo) && !math.IsInf(hi, 1) {
		blo := math.Float64bits(lo)
		shift := 0
		if l := bits.Len64(math.Float64bits(hi) - blo); l > logB {
			shift = l - logB // span>>shift < nb
		}
		for u, x := range m {
			k := int32((math.Float64bits(x) - blo) >> shift)
			if k >= int32(nb) {
				k = int32(nb) - 1
			}
			keys[u] = k
		}
	} else {
		bucketOf := bucketFunc(lo, hi, nb, logB)
		for u, x := range m {
			keys[u] = int32(bucketOf(x))
		}
	}
	cnt := ss.cnt[: nb+1 : nb+1]
	for k := range cnt {
		cnt[k] = 0
	}
	for _, k := range keys {
		cnt[k+1]++
	}
	for k := 0; k < nb; k++ {
		cnt[k+1] += cnt[k]
	}
	for u := 0; u < n; u++ {
		k := keys[u]
		order[cnt[k]] = int32(u)
		val[cnt[k]] = m[u]
		cnt[k]++
	}
	run := math.Inf(1)
	for i := n - 1; i >= 0; i-- {
		if val[i] < run {
			run = val[i]
		}
		suf[i] = run
	}
}

// sortedCols holds every column of a min-plus product in ascending value
// order, flattened into three contiguous structure-of-arrays slices with a
// uniform stride n (every column of one product has the same length):
// column c's row indices live at order[c*n:(c+1)*n], the values in that
// order at the same offsets of val, and the exact suffix minima at suf.
// One product's worth of sort data is therefore three allocations instead
// of 3×nCols, and consecutive columns are adjacent in memory — the scan
// walks a single cache-resident run instead of chasing per-column headers.
type sortedCols struct {
	n     int // entries per column (stride)
	order []int32
	val   []float64
	suf   []float64
}

// sortCols orders each column of the flat column-major matrix colsT
// (column c at colsT[c*n:(c+1)*n]) with sortAsc; built once per min-plus
// product and shared read-only across rows and worker bands.
func sortCols(colsT []float64, n, nCols int) *sortedCols {
	sc := &sortedCols{
		n:     n,
		order: make([]int32, n*nCols),
		val:   make([]float64, n*nCols),
		suf:   make([]float64, n*nCols),
	}
	var ss sortScratch
	for c := 0; c < nCols; c++ {
		o := c * n
		sortAsc(colsT[o:o+n], sc.order[o:o+n], sc.val[o:o+n], sc.suf[o:o+n], &ss)
	}
	return sc
}

// scanMinPlus fills best[c] = min_u m[u] + column c and argU[c] with a
// witness row index, scanning each column in its shared ascending order.
// colsT is flat column-major with stride sc.n; the column count is
// len(best). mMin must be the exact minimum of m. Returns the entries
// scanned (value-determined, used to pick the scan side).
func scanMinPlus(m []float64, mMin float64, colsT []float64, sc *sortedCols, best []float64, argU []int32) (scanned int) {
	pu := int32(-1)
	n := sc.n
	for c := range best {
		o := c * n
		order := sc.order[o : o+n]
		val := sc.val[o : o+n]
		suf := sc.suf[o : o+n]
		b := math.Inf(1)
		bu := int32(-1)
		if pu >= 0 {
			// Warm start from the previous column's witness: adjacent
			// columns are correlated, and a tight initial bound makes the
			// suffix-minima exit fire from the first entry.
			b = m[pu] + colsT[o+int(pu)]
			bu = pu
		}
		// Exit checks run once per block of 8: the bound only decides how
		// early the scan stops, so overshooting at most 7 entries keeps the
		// result exact. (A branchless 8-wide block reduction with
		// rescan-on-improve was tried here: it won 15–30% in microbenchmarks
		// but consistently LOST ~10% of DP time on production cold searches,
		// where scans are short — avg ≈51 entries/column — and improving
		// blocks are rare; see DESIGN.md §5.7. The serial loop stays.)
		i := 0
		for i < n {
			if suf[i]+mMin >= b {
				break
			}
			e := i + 8
			if e > n {
				e = n
			}
			for ; i < e; i++ {
				u := order[i]
				if v := val[i] + m[u]; v < b {
					b = v
					bu = u
				}
			}
		}
		scanned += i
		best[c] = b
		argU[c] = bu
		pu = bu
	}
	return scanned
}

// scanMinPlusRows fills best[c] = min_u m[u] + column c, scanning the
// SORTED m (order/val/suf from sortAsc) against each raw column of the flat
// column-major colsT (stride n = len(m), column count len(best)); colMin[c]
// must be the exact minimum of column c. Returns the entries scanned.
func scanMinPlusRows(m []float64, order []int32, val, suf []float64, colsT []float64, colMin []float64, best []float64, argU []int32) (scanned int) {
	pu := int32(-1)
	n := len(m)
	for c := range best {
		col := colsT[c*n : c*n+n]
		cm := colMin[c]
		b := math.Inf(1)
		bu := int32(-1)
		if pu >= 0 {
			// Warm start from the previous column's witness (see
			// scanMinPlus).
			b = m[pu] + col[pu]
			bu = pu
		}
		// Blocked exit checks, see scanMinPlus.
		i := 0
		val := val[:n]
		suf := suf[:n]
		for i < n {
			if suf[i]+cm >= b {
				break
			}
			e := i + 8
			if e > n {
				e = n
			}
			for ; i < e; i++ {
				u := order[i]
				if v := val[i] + col[u]; v < b {
					b = v
					bu = u
				}
			}
		}
		scanned += i
		best[c] = b
		argU[c] = bu
		pu = bu
	}
	return scanned
}

// scanMinPlusTwoSided fills best[c] = min_u m[u] + column c, walking the
// SORTED m (order/val/suf from sortAsc) and column c's shared ascending
// order (sc) in lockstep: at depth i it evaluates m's i-th index against
// the raw column and the column's i-th index against the raw m, and exits
// once sufM[i] + sufCol[i] ≥ best (see the file header). colsT is flat
// column-major with stride sc.n = len(m); the column count is len(best).
// Returns the depth reached summed over columns (no column counts more
// than len(m)); each depth reads one entry of each order, so a product
// counts two scanned entries per depth.
func scanMinPlusTwoSided(m []float64, order []int32, val, suf []float64, colsT []float64, sc *sortedCols, best []float64, argU []int32) (scanned int) {
	pu := int32(-1)
	n := sc.n
	order, val, suf = order[:n], val[:n], suf[:n]
	for c := range best {
		o := c * n
		col := colsT[o : o+n]
		corder := sc.order[o : o+n]
		cval := sc.val[o : o+n]
		csuf := sc.suf[o : o+n]
		b := math.Inf(1)
		bu := int32(-1)
		if pu >= 0 {
			// Warm start from the previous column's witness (see
			// scanMinPlus).
			b = m[pu] + col[pu]
			bu = pu
		}
		// Blocked exit checks, see scanMinPlus; a block of 4 depths reads
		// 8 entries.
		i := 0
		for i < n {
			if suf[i]+csuf[i] >= b {
				break
			}
			e := i + 4
			if e > n {
				e = n
			}
			for ; i < e; i++ {
				u := order[i]
				if v := val[i] + col[u]; v < b {
					b = v
					bu = u
				}
				u = corder[i]
				if v := cval[i] + m[u]; v < b {
					b = v
					bu = u
				}
			}
		}
		scanned += i
		best[c] = b
		argU[c] = bu
		pu = bu
	}
	return scanned
}

// productSample caps the rows a product samples to choose its kernel, and
// twoSidedMinScan is the sampled one-sided scan length per column, in
// entries, below which a product stays one-sided: the two-sided kernel
// reads two entries per depth and adds a sort of every fold vector (merges)
// or of every column (Bellman steps), which shorter scans never earn back
// (DESIGN.md §5.24).
const (
	productSample   = 8
	twoSidedMinScan = 32
)

// classScratch is one worker's state for the rows of a min-plus product:
// the fold vector m with its witnesses argm, the per-column answers best and
// bestU, and m's sorted order (order, val, suf), allocated on the first
// sort: the column kernel never sorts m.
type classScratch struct {
	m, best     []float64
	argm, bestU []int32
	order       []int32
	val, suf    []float64
	ss          *sortScratch
}

func newClassScratch(n, nCols int) *classScratch {
	f, i := make([]float64, n+nCols), make([]int32, n+nCols)
	return &classScratch{m: f[:n:n], best: f[n:], argm: i[:n:n], bestU: i[n:]}
}

// sortM sorts the fold vector into order, val and suf.
func (s *classScratch) sortM() {
	if s.ss == nil {
		n := len(s.m)
		s.order, s.val, s.suf = make([]int32, n), make([]float64, n), make([]float64, n)
		s.ss = &sortScratch{}
	}
	sortAsc(s.m, s.order, s.val, s.suf, s.ss)
}

// minPlusProduct is one min-plus product of a DP step or merge: each of the
// nRows rows folds into an n-vector m that is multiplied against the nCols
// columns of the flat column-major colsT (stride n).
type minPlusProduct struct {
	colsT    []float64
	n, nCols int
	// colMin holds each column's exact minimum when the product's one-sided
	// kernel is the row scan; nil selects the column scan, whose sorted
	// columns must then be in cols.
	colMin []float64
	cols   *sortedCols
}

// run solves every row r of the product: fold fills s.m and s.argm for row
// r and returns min(s.m); emit reads the answers from s.best, s.bestU and
// s.argm, and may keep s.best if it puts a fresh slice of the same length
// in its place. It returns the entries scanned and whether the two-sided
// kernel ran.
//
// The kernel is chosen per product. A fixed stride sample of at most
// productSample rows runs the one-sided kernel first and keeps its answers.
// When the sample's scans cover at least 1/8 of the entries it could have
// visited and average at least twoSidedMinScan entries per column, the
// product is long and every other row runs the two-sided kernel, which
// needs the sorted columns and one sort per row; a short product stays
// one-sided, so the sample costs it nothing. A product with n <
// twoSidedMinScan cannot be long and skips the sample. The choice reads
// only values and nRows, never the worker count.
func (p *minPlusProduct) run(w, nRows int, fold func(r int, s *classScratch) float64, emit func(r int, s *classScratch)) (scanned int64, twoSided bool) {
	// The sample runs on the calling goroutine: a second fan-out per
	// product would cost small products more wall time than the sample's
	// few rows. The first band reuses its scratch.
	first := newClassScratch(p.n, p.nCols)
	// solve runs row r on the two-sided kernel or the product's one-sided
	// one and returns the entries scanned.
	solve := func(r int, s *classScratch, two bool) (k int) {
		mMin := fold(r, s)
		switch {
		case two:
			s.sortM()
			k = 2 * scanMinPlusTwoSided(s.m, s.order, s.val, s.suf, p.colsT, p.cols, s.best, s.bestU)
		case p.colMin != nil:
			s.sortM()
			k = scanMinPlusRows(s.m, s.order, s.val, s.suf, p.colsT, p.colMin, s.best, s.bestU)
		default:
			k = scanMinPlus(s.m, mMin, p.colsT, p.cols, s.best, s.bestU)
		}
		emit(r, s)
		return k
	}
	var sampled int64
	var rest atomic.Int64
	// A fold vector shorter than twoSidedMinScan can never average that
	// many entries per column: such a product is short without a sample.
	stride := 0
	if p.n >= twoSidedMinScan {
		stride = (nRows + productSample - 1) / productSample
		nSample := (nRows + stride - 1) / stride
		for r := 0; r < nRows; r += stride {
			sampled += int64(solve(r, first, false))
		}
		twoSided = 8*sampled >= int64(nSample)*int64(p.n)*int64(p.nCols) &&
			sampled >= int64(nSample)*int64(p.nCols)*twoSidedMinScan
		if stride == 1 {
			return sampled, false // every row was sampled
		}
	}
	if twoSided && p.cols == nil {
		p.cols = sortCols(p.colsT, p.n, p.nCols)
	}
	parallelChunks(w, nRows, func(lo, hi int) {
		s, k := first, 0
		if lo > 0 {
			s = newClassScratch(p.n, p.nCols)
		}
		for r := lo; r < hi; r++ {
			if stride == 0 || r%stride != 0 { // sampled rows are solved
				k += solve(r, s, twoSided)
			}
		}
		rest.Add(int64(k))
	})
	return sampled + rest.Load(), twoSided
}

// refineClasses folds per-candidate id vectors into joint equivalence
// classes: two candidates share a class iff every id vector agrees on them.
// Class ids are assigned in first-seen (candidate-ascending) order, so the
// result is deterministic; reps[r] is the lowest candidate index of class r.
// Nil vectors are skipped; with no vectors everything lands in class 0.
func refineClasses(n int, ids ...[]int32) (cls []int32, reps []int32) {
	cls = make([]int32, n)
	reps = append(reps, 0)
	for _, id := range ids {
		if id == nil {
			continue
		}
		byKey := make(map[uint64]int32, len(reps))
		newCls := make([]int32, n)
		reps = reps[:0]
		next := int32(0)
		for i := 0; i < n; i++ {
			key := uint64(uint32(cls[i]))<<32 | uint64(uint32(id[i]))
			c, ok := byKey[key]
			if !ok {
				c = next
				next++
				byKey[key] = c
				reps = append(reps, int32(i))
			}
			newCls[i] = c
		}
		cls = newCls
	}
	return cls, reps
}
