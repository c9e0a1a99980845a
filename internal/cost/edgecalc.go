// EdgeCalc: a node-factored, memoizing evaluator for edge redistribution
// traffic.
//
// Measure's per-cell cost is dominated by overlapFrac: for every candidate
// pair it walks all devices and their node peers, multiplying per-axis
// interval overlaps. But the overlap of one axis pair depends only on how
// that ONE axis is distributed on each side — and across a whole candidate
// space an axis takes only a few dozen distinct distributions (patterns).
// EdgeCalc exploits that structure at three levels:
//
//  1. The per-device-pair overlap vector of a (provider pattern, need
//     pattern) combination depends on nothing but the two patterns and the
//     cluster shape, so one OverlapTables registry per search computes each
//     combination once for every edge and axis pairing that meets it, and
//     deduplicates it per NODE: the perNode×perNode block a node sees takes
//     only ~10²–10³ distinct values ("node blocks"), and the per-(pattern
//     pair) sequence of node blocks across the machine collapses to a small
//     set of "node vectors". Each (source axis, destination axis) pairing of
//     an edge maps its local patterns to the registry's and numbers the node
//     vectors and blocks it meets locally, in first-seen order.
//  2. A direction's coverage-fraction pair is a pure function of the cell's
//     node-vector tuple — Measure keeps the moved volume out of its
//     accumulation tree precisely so this holds — so each distinct tuple is
//     evaluated once and memoized; the millions of remaining cells are two
//     hash probes each. At 32 devices the realized tuple count is an order
//     of magnitude smaller than the cell count.
//  3. Evaluating a distinct tuple folds per-node coverage fractions that are
//     themselves memoized per node-block combination, so even the miss path
//     touches perNode² floats per node instead of re-walking every device.
//
// The arithmetic — operand values, multiplication order, accumulation order —
// is exactly MeasureFwd/MeasureBwd's volume-free partial-sum tree, so results
// are bit-identical; the equivalence is pinned by tests and by core's
// SerialUncached search mode. Identical keys imply identical operands at
// every step (pattern ids and node-block ids are assigned by exact byte
// equality, never by hash), which is why memoization is exact.
package cost

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// calcTableLimit caps the per-direction table size (in float64s) so a
// pathological pattern explosion falls back to direct Measure calls instead
// of exhausting memory. The size is the dense (source pattern × destination
// pattern × device pair) extent of one axis pairing, whether or not the
// registry already holds some of its vectors.
const calcTableLimit = 16 << 20

// calcKeyLimit caps the packed key spaces (cell keys and node-combo keys) so
// index arithmetic can never overflow a uint64; beyond it the evaluator
// computes cells directly (still exactly) without memoization.
const calcKeyLimit = 1 << 62

// axisPair is one (source op axis, destination op axis) correspondence in a
// direction's coverage product.
type axisPair struct{ sa, dax int }

// OverlapTables is the registry of per-axis overlap vectors for one cluster
// shape (device count and devices per node), shared by every edge calc of a
// search. It interns axis patterns by exact byte equality and maps each
// (provider pattern, need pattern) pair to a node vector: the pair's
// per-device-pair overlap vector, split into deduplicated node blocks. Each
// pair's vector is computed once, however many edges and axis pairings meet
// it. It also recycles the memo tables of released BlockEvals, so a search's
// matrices reuse each other's memos instead of allocating fresh ones. Safe
// for concurrent use: edge matrices build concurrently.
type OverlapTables struct {
	devices, perNode int

	mu      sync.Mutex
	patIDs  map[string]int32 // pattern key (see patternIDs) -> pattern id
	pats    []axisPattern
	pairVec map[[2]int32]int32 // (provider, need) pattern ids -> node-vector id
	blkIDs  map[string]int32
	blks    []float64 // [bid*perNode² ...] deduped node blocks
	vecIDs  map[string]int32
	vecs    []int32   // vid*nodes+g -> node-block id
	ov      []float64 // scratch: one pair's device-pair overlap vector
	vecKey  []int32   // scratch: one pair's node-block ids
	keyBuf  []byte
	free    [][]cellSlot // slot arrays of released memos
}

// NewOverlapTables returns an empty registry for a cluster of the given
// device count and node width.
func NewOverlapTables(devices, perNode int) *OverlapTables {
	return &OverlapTables{
		devices: devices, perNode: perNode,
		patIDs:  make(map[string]int32),
		pairVec: make(map[[2]int32]int32),
		blkIDs:  make(map[string]int32),
		vecIDs:  make(map[string]int32),
		ov:      make([]float64, devices*perNode),
		vecKey:  make([]int32, devices/perNode),
	}
}

// pattern returns the id of the pattern with the given key, interning it on
// first sight. The caller holds t.mu.
func (t *OverlapTables) pattern(key string) int32 {
	id, ok := t.patIDs[key]
	if !ok {
		id = int32(len(t.pats))
		t.patIDs[key] = id
		pat := axisPattern{width: keyFloat(key, 0), starts: make([]float64, len(key)/8-1)}
		for dev := range pat.starts {
			pat.starts[dev] = keyFloat(key, 1+dev)
		}
		t.pats = append(t.pats, pat)
	}
	return id
}

// keyFloat decodes the i-th little-endian float64 of a pattern key.
func keyFloat(key string, i int) float64 {
	var u uint64
	for b := 7; b >= 0; b-- {
		u = u<<8 | uint64(key[8*i+b])
	}
	return math.Float64frombits(u)
}

// vector returns the node-vector id of provider pattern prov covering need
// pattern need, computing and deduplicating it on first sight. The caller
// holds t.mu.
func (t *OverlapTables) vector(prov, need int32) int32 {
	k := [2]int32{prov, need}
	if vid, ok := t.pairVec[k]; ok {
		return vid
	}
	// ov[dev*perNode+j] is the overlap of provider cell nodeOf(dev)+j with
	// need cell dev; node g's block is the contiguous slice
	// [g*blkLen, (g+1)*blkLen).
	pv, nd := &t.pats[prov], &t.pats[need]
	pn := t.perNode
	for dev := 0; dev < t.devices; dev++ {
		nodeStart := dev / pn * pn
		for j := 0; j < pn; j++ {
			t.ov[dev*pn+j] = overlapFrac(
				pv.starts[nodeStart+j], pv.width,
				nd.starts[dev], nd.width, nd.width)
		}
	}
	blkLen := pn * pn
	for g := range t.vecKey {
		nb := t.ov[g*blkLen : (g+1)*blkLen]
		t.keyBuf = t.keyBuf[:0]
		for _, v := range nb {
			t.keyBuf = binary.LittleEndian.AppendUint64(t.keyBuf, math.Float64bits(v))
		}
		bid, ok := t.blkIDs[string(t.keyBuf)]
		if !ok {
			bid = int32(len(t.blkIDs))
			t.blkIDs[string(t.keyBuf)] = bid
			t.blks = append(t.blks, nb...)
		}
		t.vecKey[g] = bid
	}
	t.keyBuf = t.keyBuf[:0]
	for _, bid := range t.vecKey {
		t.keyBuf = binary.LittleEndian.AppendUint32(t.keyBuf, uint32(bid))
	}
	vid, ok := t.vecIDs[string(t.keyBuf)]
	if !ok {
		vid = int32(len(t.vecIDs))
		t.vecIDs[string(t.keyBuf)] = vid
		t.vecs = append(t.vecs, t.vecKey...)
	}
	t.pairVec[k] = vid
	return vid
}

// memo starts tab empty with memoLen(size) slots, reusing a released slot
// array of exactly that length when there is one. Capacity never changes a
// lookup result.
func (t *OverlapTables) memo(tab *cellTab, size int) {
	want := memoLen(size)
	var slots []cellSlot
	t.mu.Lock()
	for i, f := range t.free {
		if len(f) == want {
			slots = f
			last := len(t.free) - 1
			t.free[i] = t.free[last]
			t.free = t.free[:last]
			break
		}
	}
	t.mu.Unlock()
	if slots == nil {
		slots = make([]cellSlot, want)
	} else {
		clear(slots)
	}
	tab.use(slots)
}

// dirCalc is the table set of one traffic direction (forward or backward).
type dirCalc struct {
	pairs   []axisPair
	rowPat  [][]int32 // [pair][row rep] -> source-side pattern id
	colPat  [][]int32 // [pair][col rep] -> destination-side pattern id
	nColPat []int     // [pair] distinct destination-side pattern count

	// Node factoring (see package comment), numbered per edge in first-seen
	// order. All ids trace back to exact byte equality, so equal ids imply
	// bit-equal operands.
	nodes   int
	perNode int
	nBlk    []int32     // [pair] distinct node-block count
	nVec    []int32     // [pair] distinct node-vector count
	blks    [][]float64 // [pair] deduped node blocks, perNode² floats each
	vecs    [][]int32   // [pair] vid*nodes+g -> node-block id
	cellVec [][]int32   // [pair] rp*nColPat+cp -> node-vector id

	// cellMemo/comboMemo report whether the packed key spaces fit
	// calcKeyLimit; when false the corresponding memo level is skipped and
	// values are computed directly (identical results, just slower).
	cellMemo  bool
	comboMemo bool
}

// EdgeCalc evaluates Measure for (row representative, column representative)
// pairs of one edge through precomputed per-axis overlap tables. Shared
// read-only state; per-goroutine evaluation goes through Eval.
type EdgeCalc struct {
	t   *OverlapTables
	p   *EdgePlan
	fwd dirCalc
	bwd dirCalc
	// fwdVol[ci] is MeasureFwd's vDst for column rep ci; bwdVol[ri] is
	// MeasureBwd's vSrc for row rep ri.
	fwdVol []float64
	bwdVol []float64
}

// NewCalc builds the table evaluator for this plan over the given interface
// representatives (srcReps: producer output interfaces of the row groups,
// dstReps: consumer input interfaces of the column groups), taking its
// overlap vectors from t, which must describe the plan's cluster shape.
// Returns nil when the pattern tables would exceed calcTableLimit; callers
// must then fall back to Measure.
func (p *EdgePlan) NewCalc(t *OverlapTables, srcReps, dstReps []*Iface) *EdgeCalc {
	if t.devices != p.devices || t.perNode != p.perNode {
		panic(fmt.Sprintf("cost: overlap tables for %d devices (%d per node) used on an edge of %d devices (%d per node)",
			t.devices, t.perNode, p.devices, p.perNode))
	}
	c := &EdgeCalc{t: t, p: p}
	var fp, bp []axisPair
	for i, dax := range p.fwdDst {
		if sa := p.fwdSrc[i]; sa >= 0 {
			fp = append(fp, axisPair{sa, dax})
		}
	}
	for i, sa := range p.bwdSrc {
		if dax := p.bwdDst[i]; dax >= 0 {
			bp = append(bp, axisPair{sa, dax})
		}
	}
	if !c.fwd.build(t, p, fp, srcReps, dstReps, true) {
		return nil
	}
	if !c.bwd.build(t, p, bp, srcReps, dstReps, false) {
		return nil
	}
	c.fwdVol = make([]float64, len(dstReps))
	for ci, d := range dstReps {
		v := p.dstFull
		for _, dax := range p.fwdDst {
			v *= d.Width[dax]
		}
		c.fwdVol[ci] = v
	}
	c.bwdVol = make([]float64, len(srcReps))
	for ri, s := range srcReps {
		v := p.srcFull
		for _, sa := range p.bwdSrc {
			v *= s.Width[sa]
		}
		c.bwdVol[ri] = v
	}
	c.fwd.checkKeySpaces()
	c.bwd.checkKeySpaces()
	return c
}

// checkKeySpaces decides which memo levels fit calcKeyLimit.
func (d *dirCalc) checkKeySpaces() {
	cell := uint64(1)
	combo := uint64(1)
	d.cellMemo, d.comboMemo = true, true
	for i := range d.pairs {
		if cell > calcKeyLimit/uint64(d.nVec[i]+1) {
			d.cellMemo = false
		} else {
			cell *= uint64(d.nVec[i])
		}
		if combo > calcKeyLimit/uint64(d.nBlk[i]+1) {
			d.comboMemo = false
		} else {
			combo *= uint64(d.nBlk[i])
		}
	}
}

// axisPattern describes one distinct distribution of a single axis: its
// uniform interval width and every device's interval start.
type axisPattern struct {
	width  float64
	starts []float64
}

// patternIDs groups the interfaces by their (width, per-device starts) on
// axis ax of the chosen pass array, returning per-interface local pattern
// ids and the distinct patterns' keys (the little-endian bytes of the width
// and then every start) in first-seen order. Grouping is by exact byte
// equality — no hashing — so distinct distributions can never share an id.
func patternIDs(ifaces []*Iface, ax int, fwd bool) ([]int32, []string) {
	byKey := make(map[string]int32)
	ids := make([]int32, len(ifaces))
	var keys []string
	var buf []byte
	for i, ifc := range ifaces {
		arr := ifc.Fwd
		if !fwd {
			arr = ifc.Bwd
		}
		devs := len(arr) / ifc.NumAxes
		buf = binary.LittleEndian.AppendUint64(buf[:0], math.Float64bits(ifc.Width[ax]))
		for dev := 0; dev < devs; dev++ {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(arr[dev*ifc.NumAxes+ax]))
		}
		id, ok := byKey[string(buf)]
		if !ok {
			id = int32(len(keys))
			key := string(buf)
			byKey[key] = id
			keys = append(keys, key)
		}
		ids[i] = id
	}
	return ids, keys
}

// build fills one direction's pattern ids and node-factoring indexes from
// the registry t. Reports false when a pairing's dense table would exceed
// calcTableLimit.
func (d *dirCalc) build(t *OverlapTables, p *EdgePlan, pairs []axisPair, srcReps, dstReps []*Iface, fwdPass bool) bool {
	d.pairs = pairs
	d.perNode = p.perNode
	d.nodes = p.devices / p.perNode
	n := p.devices * p.perNode
	blkLen := p.perNode * p.perNode
	var srcPat, dstPat []int32
	for _, pr := range pairs {
		srcIDs, srcKeys := patternIDs(srcReps, pr.sa, fwdPass)
		dstIDs, dstKeys := patternIDs(dstReps, pr.dax, fwdPass)
		nr, nc := len(srcKeys), len(dstKeys)
		if nr*nc*n > calcTableLimit {
			return false
		}
		// Number the registry's node vectors and blocks locally, in the
		// (rp, cp, node) first-seen order: an equal vector has equal
		// blocks, so a block can only be new inside a new vector.
		cellVec := make([]int32, nr*nc)
		vecLoc := make(map[int32]int32)
		blkLoc := make(map[int32]int32)
		var blks []float64
		var vecs []int32
		t.mu.Lock()
		srcPat, dstPat = srcPat[:0], dstPat[:0]
		for _, k := range srcKeys {
			srcPat = append(srcPat, t.pattern(k))
		}
		for _, k := range dstKeys {
			dstPat = append(dstPat, t.pattern(k))
		}
		for rp, sp := range srcPat {
			for cp, dp := range dstPat {
				// Both directions are the same provider-covers-need fill:
				// forward the producer (src) provides for the consumer
				// (dst), backward the consumer provides for the producer.
				prov, need := sp, dp
				if !fwdPass {
					prov, need = need, prov
				}
				gv := t.vector(prov, need)
				vid, ok := vecLoc[gv]
				if !ok {
					vid = int32(len(vecLoc))
					vecLoc[gv] = vid
					for _, gb := range t.vecs[int(gv)*d.nodes:][:d.nodes] {
						bid, ok := blkLoc[gb]
						if !ok {
							bid = int32(len(blkLoc))
							blkLoc[gb] = bid
							blks = append(blks, t.blks[int(gb)*blkLen:][:blkLen]...)
						}
						vecs = append(vecs, bid)
					}
				}
				cellVec[rp*nc+cp] = vid
			}
		}
		t.mu.Unlock()
		d.rowPat = append(d.rowPat, srcIDs)
		d.colPat = append(d.colPat, dstIDs)
		d.nColPat = append(d.nColPat, nc)
		d.nBlk = append(d.nBlk, int32(len(blkLoc)))
		d.nVec = append(d.nVec, int32(len(vecLoc)))
		d.blks = append(d.blks, blks)
		d.vecs = append(d.vecs, vecs)
		d.cellVec = append(d.cellVec, cellVec)
	}
	return true
}

// frac is one folded (intra, inter) coverage-fraction pair — either a single
// node's or, in the cell memo, the whole machine's.
type frac struct{ fi, fe float64 }

// CellEval evaluates cells of one EdgeCalc with private memo state; create
// one per goroutine (via Eval) and reuse it across many cells — the memos
// are what make the per-cell cost amortize to a couple of hash probes.
type CellEval struct {
	c        *EdgeCalc
	fwd, bwd dirEval
}

// dirEval is one direction's per-goroutine memo state.
type dirEval struct {
	d     *dirCalc
	cells cellTab
	combo cellTab
	buf   []float64 // perNode² scratch for combined node blocks
	vids  []int32   // per-pair node-vector ids of the current cell
}

// Eval returns a fresh per-goroutine cell evaluator.
func (c *EdgeCalc) Eval() *CellEval {
	blkLen := c.p.perNode * c.p.perNode
	ce := &CellEval{c: c}
	ce.fwd = dirEval{d: &c.fwd,
		buf: make([]float64, blkLen), vids: make([]int32, len(c.fwd.pairs))}
	ce.bwd = dirEval{d: &c.bwd,
		buf: make([]float64, blkLen), vids: make([]int32, len(c.bwd.pairs))}
	ce.fwd.cells.init()
	ce.bwd.cells.init()
	ce.fwd.combo.init()
	ce.bwd.combo.init()
	return ce
}

// MeasureCell returns the edge's Traffic for (row rep ri, column rep ci),
// bit-identical to p.Measure(srcReps[ri], dstReps[ci]).
func (ce *CellEval) MeasureCell(ri, ci int) Traffic {
	eb := ce.c.p.eb
	f := ce.fwd.eval(ri, ci)
	b := ce.bwd.eval(ri, ci)
	fv, bv := ce.c.fwdVol[ci], ce.c.bwdVol[ri]
	return Traffic{
		FwdIntra: fv * f.fi * eb, FwdInter: fv * f.fe * eb,
		BwdIntra: bv * b.fi * eb, BwdInter: bv * b.fe * eb,
	}
}

// eval returns one direction's machine-wide coverage-fraction pair for cell
// (ri, ci).
func (de *dirEval) eval(ri, ci int) frac {
	d := de.d
	if len(d.pairs) == 0 {
		// Unmapped direction: every device fully covers itself.
		return frac{}
	}
	key := uint64(0)
	for i := range d.pairs {
		vid := d.cellVec[i][int(d.rowPat[i][ri])*d.nColPat[i]+int(d.colPat[i][ci])]
		de.vids[i] = vid
		key = key*uint64(d.nVec[i]) + uint64(vid)
	}
	if !d.cellMemo {
		return de.compute()
	}
	if f, ok := de.cells.get(key); ok {
		return f
	}
	f := de.compute()
	de.cells.put(key, f)
	return f
}

// compute evaluates the current cell (node-vector ids in de.vids) from node
// contributions, reproducing MeasureFwd/MeasureBwd's volume-free partial-sum
// tree exactly.
func (de *dirEval) compute() frac {
	d := de.d
	if d.comboMemo && len(d.pairs) == 2 {
		// Dominant pair count: hoist the two node-vector slices out of the
		// node loop. Same keys, same comboFrac calls, same accumulation order.
		v0 := d.vecs[0][int(de.vids[0])*d.nodes:][:d.nodes]
		v1 := d.vecs[1][int(de.vids[1])*d.nodes:][:d.nodes]
		r1 := uint64(d.nBlk[1])
		var tot frac
		for g := 0; g < d.nodes; g++ {
			ck := uint64(v0[g])*r1 + uint64(v1[g])
			fr, ok := de.combo.get(ck)
			if !ok {
				fr = de.comboFrac(g)
				de.combo.put(ck, fr)
			}
			tot.fi += fr.fi
			tot.fe += fr.fe
		}
		return tot
	}
	var tot frac
	for g := 0; g < d.nodes; g++ {
		var fr frac
		if d.comboMemo {
			var ck uint64
			for i := range d.pairs {
				ck = ck*uint64(d.nBlk[i]) + uint64(d.vecs[i][int(de.vids[i])*d.nodes+g])
			}
			var ok bool
			if fr, ok = de.combo.get(ck); !ok {
				fr = de.comboFrac(g)
				de.combo.put(ck, fr)
			}
		} else {
			fr = de.comboFrac(g)
		}
		tot.fi += fr.fi
		tot.fe += fr.fe
	}
	return tot
}

// comboFrac folds node g's coverage fractions from the combined node block:
// the elementwise product of the per-pair node blocks (in pair order, exactly
// fwdCov/bwdCov's multiplication order), then Measure's per-device loop.
func (de *dirEval) comboFrac(g int) frac {
	d := de.d
	pn := d.perNode
	blkLen := pn * pn
	buf := de.buf
	b0 := int(d.vecs[0][int(de.vids[0])*d.nodes+g]) * blkLen
	copy(buf, d.blks[0][b0:b0+blkLen])
	for i := 1; i < len(d.pairs); i++ {
		bo := int(d.vecs[i][int(de.vids[i])*d.nodes+g]) * blkLen
		blk := d.blks[i][bo : bo+blkLen]
		for k := 0; k < blkLen; k++ {
			buf[k] *= blk[k]
		}
	}
	var f frac
	for j := 0; j < pn; j++ {
		covSelf := buf[j*pn+j]
		if missing := 1 - covSelf; missing > 0 {
			covNode := covSelf
			for q := 0; q < pn && covNode < 1; q++ {
				if q == j {
					continue
				}
				covNode += buf[j*pn+q]
			}
			if covNode > 1 {
				covNode = 1
			}
			intra := covNode - covSelf
			if intra > missing {
				intra = missing
			}
			f.fi += intra
			f.fe += missing - intra
		}
	}
	return f
}

// BlockEval fills whole matrix rows through one specialized streaming loop
// instead of per-cell Eval calls. Per row it hoists each pair's cellVec row
// slice once, packs cell keys with pure loads (no per-cell vids writes on the
// hit path), and fuses the forward/backward fractions with the edge volumes
// in registers; consecutive cells that repeat the same node-vector key reuse
// the previous result without a probe. Values are bit-identical to
// MeasureCell: the same mixed-radix keys probe the same memo, and misses run
// the same compute().
//
// Earlier drafts interned whole rows/columns (by vid-slice signature) or
// per-pair column-pattern tuples into dense block tables, and fronted the
// memo with a small epoch-tagged per-row cache; measurement rejected all
// three. The groupings are the identity here — the interface grouping
// upstream (ifaceGroups) already leaves zero row/column duplication, and
// distinct pattern tuples never repeat within a matrix — and the extra cache
// cost more in lookup overhead than it saved in memo misses.
//
// Create one per goroutine (via Block); the memo and row buffers are private.
// Release it when done, so the search's later matrices reuse its memos.
type BlockEval struct {
	c        *EdgeCalc
	fwd, bwd dirStream
}

// dirStream is one direction's streaming row-fill state. For the dominant
// two-pair shape it carries a per-row vid grid: each pair's cellVec row slice
// holds only a handful of DISTINCT node-vector ids (the measured source of
// the ~2-4x per-row key repetition), so the row's cells live on a tiny
// (distinct vid0 x distinct vid1) grid. The grid is filled lazily — one
// global memo probe per realized vid pair — and every repeated cell is a
// direct epoch-checked load from a buffer small enough to stay cache-hot.
type dirStream struct {
	de    dirEval
	row   []frac    // per-column fractions of the current row
	rowSl [][]int32 // per pair: cellVec row slice of the current row

	// Two-pair grid state (nil/unused otherwise). loc0/loc1 map a pair's
	// column-pattern id to the local index of its vid within the current row;
	// vals0/vals1 list the distinct vids in first-seen order.
	loc0, loc1   []int32
	vals0, vals1 []int32
	grid         []frac   // [l0*len(vals1)+l1], lazily filled
	gridEp       []uint32 // epoch tag per grid slot
	epoch        uint32
}

// Block returns a fresh per-goroutine streaming row evaluator.
func (c *EdgeCalc) Block() *BlockEval {
	be := &BlockEval{c: c}
	nRows, nCols := len(c.bwdVol), len(c.fwdVol)
	be.fwd.init(c.t, &c.fwd, nRows, nCols)
	be.bwd.init(c.t, &c.bwd, nRows, nCols)
	return be
}

// Release hands the evaluator's memos back to the calc's registry for the
// search's later matrices to reuse; be must not be used afterwards. A memo
// that grew past every start size could never be reused, so the registry
// does not keep it: holding such tables until the search ends would raise
// its peak memory for nothing.
func (be *BlockEval) Release() {
	t := be.c.t
	t.mu.Lock()
	for _, tab := range []*cellTab{&be.fwd.de.cells, &be.fwd.de.combo, &be.bwd.de.cells, &be.bwd.de.combo} {
		if len(tab.slots) <= max(cellMemoCap, comboMemoCap) {
			t.free = append(t.free, tab.slots)
		}
		tab.slots = nil
	}
	t.mu.Unlock()
}

// Memo start sizes, in slots. A matrix realizes at most one cell key per
// cell and one combo key per (cell, node), and a table of twice its key
// count never grows (cellTab.put keeps the load at or below one half). The
// slot arrays come from the search's registry when a released one of the
// same length is free (OverlapTables.memo).
const (
	// cellMemoCap caps the cell memo's start: 64k slots skip the early
	// grow/rehash rounds of big matrices. Sizing it from the full cell count
	// of a big matrix was measured SLOWER: realized keys run ~10% of cells,
	// and a near-empty giant table costs a cache miss per probe where the
	// compact grown table stays hot.
	cellMemoCap = 1 << 16
	// comboMemoCap caps the combo memo's start; it grows on demand.
	comboMemoCap = 1 << 12
)

// memoSlots is the start size of a table that may receive up to keys keys:
// room for all of them without a grow, but never more than limit slots.
func memoSlots(keys, limit int) int {
	if keys > limit/2 {
		return limit
	}
	return 2 * keys
}

func (s *dirStream) init(t *OverlapTables, d *dirCalc, nRows, nCols int) {
	s.de = dirEval{d: d,
		buf: make([]float64, d.perNode*d.perNode), vids: make([]int32, len(d.pairs))}
	// Both memos serve every cell of the matrix, so the matrix bounds their
	// key counts: a stage-sized matrix of a few dozen cells allocates a few
	// dozen slots, and a big one starts at the cap.
	cells := nRows * nCols
	t.memo(&s.de.cells, memoSlots(cells, cellMemoCap))
	t.memo(&s.de.combo, memoSlots(cells*d.nodes, comboMemoCap))
	s.row = make([]frac, nCols) // stays all-zero for an unmapped direction
	s.rowSl = make([][]int32, len(d.pairs))
	if len(d.pairs) == 2 && d.cellMemo {
		n0, n1 := d.nColPat[0], d.nColPat[1]
		s.loc0 = make([]int32, n0)
		s.loc1 = make([]int32, n1)
		s.vals0 = make([]int32, 0, n0)
		s.vals1 = make([]int32, 0, n1)
		s.grid = make([]frac, n0*n1)
		s.gridEp = make([]uint32, n0*n1)
	}
}

// internRow fills loc with the local index of each entry of sl among the
// distinct values of sl (first-seen order, appended to vals). The distinct
// count is tiny, so the linear rescan beats any map.
func internRow(sl []int32, loc []int32, vals []int32) []int32 {
	vals = vals[:0]
	for p, v := range sl {
		id := int32(-1)
		for j, w := range vals {
			if w == v {
				id = int32(j)
				break
			}
		}
		if id < 0 {
			id = int32(len(vals))
			vals = append(vals, v)
		}
		loc[p] = id
	}
	return vals
}

// fillRow computes the direction's coverage fractions of row ri for every
// column into s.row, bit-identical to dirEval.eval per cell.
func (s *dirStream) fillRow(ri int) {
	d := s.de.d
	k := len(d.pairs)
	if k == 0 {
		return // unmapped direction: every cell is the zero frac
	}
	for i := 0; i < k; i++ {
		nc := d.nColPat[i]
		s.rowSl[i] = d.cellVec[i][int(d.rowPat[i][ri])*nc:][:nc]
	}
	de := &s.de
	out := s.row
	if !d.cellMemo {
		// Node-vector keys would overflow a packed uint64 (that is what turned
		// the memo off), so no key-based reuse: evaluate each cell directly,
		// exactly as eval does without the memo.
		for ci := range out {
			for i := 0; i < k; i++ {
				de.vids[i] = s.rowSl[i][d.colPat[i][ci]]
			}
			out[ci] = de.compute()
		}
		return
	}
	prevKey := ^uint64(0) // impossible: real keys stay below the radix product
	var prevF frac
	if k == 2 {
		// The dominant pair count: map each cell to the row's local vid grid.
		// Repeated vid pairs — most cells — cost one epoch-checked grid load;
		// only the first occurrence of a pair touches the memo.
		s0, s1 := s.rowSl[0], s.rowSl[1]
		c0, c1 := d.colPat[0], d.colPat[1]
		s.vals0 = internRow(s0, s.loc0, s.vals0)
		s.vals1 = internRow(s1, s.loc1, s.vals1)
		n1 := int32(len(s.vals1))
		loc0, loc1 := s.loc0, s.loc1
		grid, gridEp := s.grid, s.gridEp
		s.epoch++
		if s.epoch == 0 { // wrapped: stale tags could alias, clear them
			clear(gridEp)
			s.epoch = 1
		}
		epoch := s.epoch
		r1 := uint64(d.nVec[1])
		for ci := range out {
			gi := loc0[c0[ci]]*n1 + loc1[c1[ci]]
			if gridEp[gi] != epoch {
				gridEp[gi] = epoch
				v0, v1 := s0[c0[ci]], s1[c1[ci]]
				key := uint64(v0)*r1 + uint64(v1)
				f, ok := de.cells.get(key)
				if !ok {
					de.vids[0] = v0
					de.vids[1] = v1
					f = de.compute()
					de.cells.put(key, f)
				}
				grid[gi] = f
			}
			out[ci] = grid[gi]
		}
		return
	}
	for ci := range out {
		key := uint64(0)
		for i := 0; i < k; i++ {
			vid := s.rowSl[i][d.colPat[i][ci]]
			de.vids[i] = vid
			key = key*uint64(d.nVec[i]) + uint64(vid)
		}
		if key != prevKey {
			prevKey = key
			f, ok := de.cells.get(key)
			if !ok {
				f = de.compute()
				de.cells.put(key, f)
			}
			prevF = f
		}
		out[ci] = prevF
	}
}

// MeasureRow fills out[ci] = MeasureCell(ri, ci) for every column rep,
// bit-identically: same operands, same multiplication order.
func (be *BlockEval) MeasureRow(ri int, out []Traffic) {
	be.fwd.fillRow(ri)
	be.bwd.fillRow(ri)
	eb := be.c.p.eb
	fRow, bRow := be.fwd.row, be.bwd.row
	fVol := be.c.fwdVol
	bv := be.c.bwdVol[ri]
	for ci := range out {
		f, b := fRow[ci], bRow[ci]
		fv := fVol[ci]
		out[ci] = Traffic{
			FwdIntra: fv * f.fi * eb, FwdInter: fv * f.fe * eb,
			BwdIntra: bv * b.fi * eb, BwdInter: bv * b.fe * eb,
		}
	}
}

// MeasureRowInto fills out[ci] = m.RedistributeDetail(MeasureCell(ri, ci))
// for every column rep — the fused form, which keeps each cell's Traffic in
// registers instead of materializing a row of structs. The Traffic operands
// and RedistributeDetail arithmetic are exactly MeasureRow's.
func (be *BlockEval) MeasureRowInto(m *Model, ri int, out []float64) {
	be.fwd.fillRow(ri)
	be.bwd.fillRow(ri)
	eb := be.c.p.eb
	fRow, bRow := be.fwd.row, be.bwd.row
	fVol := be.c.fwdVol
	bv := be.c.bwdVol[ri]
	for ci := range out {
		f, b := fRow[ci], bRow[ci]
		fv := fVol[ci]
		out[ci] = m.RedistributeDetail(Traffic{
			FwdIntra: fv * f.fi * eb, FwdInter: fv * f.fe * eb,
			BwdIntra: bv * b.fi * eb, BwdInter: bv * b.fe * eb,
		})
	}
}

// cellTab is a small open-addressing uint64→frac hash table with inline
// values (keys are stored +1 so zero marks an empty slot; a hit touches one
// cache line). It exists because the cell memo is probed once per matrix
// cell — a runtime map's overhead would eat most of the factoring win.
type cellTab struct {
	slots []cellSlot
	n     int
	mask  uint64
	shift uint8
}

type cellSlot struct {
	key    uint64
	fi, fe float64
}

func (t *cellTab) init() { t.initSize(1 << 12) }

// initSize starts the table with a power-of-two slot count ≥ size (at least
// two), letting callers that expect many entries skip the early grow/rehash
// rounds and callers that expect few skip zeroing slots they never use.
// Capacity never affects lookup results, only allocation churn.
func (t *cellTab) initSize(size int) { t.use(make([]cellSlot, memoLen(size))) }

// memoLen is the power-of-two slot count ≥ size, at least two.
func memoLen(size int) int {
	n := 2
	for n < size {
		n <<= 1
	}
	return n
}

// use starts the table on slots, an all-empty power-of-two slice.
func (t *cellTab) use(slots []cellSlot) {
	t.slots = slots
	t.mask = uint64(len(slots) - 1)
	t.shift = uint8(64 - bits.TrailingZeros(uint(len(slots))))
	t.n = 0
}

// slotFor keeps the HIGH product bits — the only well-mixed bits of a
// Fibonacci hash — so probe chains stay short.
func (t *cellTab) slotFor(k uint64) uint64 {
	return (k * 0x9E3779B97F4A7C15) >> t.shift
}

func (t *cellTab) get(k uint64) (frac, bool) {
	i := t.slotFor(k)
	for {
		s := &t.slots[i]
		if s.key == 0 {
			return frac{}, false
		}
		if s.key == k+1 {
			return frac{s.fi, s.fe}, true
		}
		i = (i + 1) & t.mask
	}
}

func (t *cellTab) put(k uint64, f frac) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	i := t.slotFor(k)
	for t.slots[i].key != 0 {
		i = (i + 1) & t.mask
	}
	t.slots[i] = cellSlot{key: k + 1, fi: f.fi, fe: f.fe}
	t.n++
}

func (t *cellTab) grow() {
	old := t.slots
	size := 4 * len(old) // 4x growth keeps total rehash work ~1.3x final size
	t.slots = make([]cellSlot, size)
	t.mask = uint64(size - 1)
	t.shift -= 2
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		j := t.slotFor(s.key - 1)
		for t.slots[j].key != 0 {
			j = (j + 1) & t.mask
		}
		t.slots[j] = s
	}
}
