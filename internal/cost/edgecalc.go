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
//  1. Pattern ids come from the candidate space, not from each edge: a
//     space interns its interfaces' axis patterns once (Patterns), and every
//     edge touching the space reads its representatives' ids from there. The
//     per-device-pair overlap vector of a (provider pattern, need pattern)
//     combination depends on nothing but the two patterns and the cluster
//     shape, so one OverlapTables registry per search maps each space
//     pattern to a registry pattern once, computes each combination once for
//     every edge and axis pairing that meets it, and deduplicates it per
//     NODE: the perNode×perNode block a node sees takes only ~10²–10³
//     distinct values ("node blocks"), and the per-(pattern pair) sequence
//     of node blocks across the machine collapses to a small set of "node
//     vectors". Each (source axis, destination axis) pairing of an edge
//     numbers the patterns, node vectors and blocks it meets locally, in
//     first-seen order.
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
// Across a layer's edges, whole fraction matrices repeat: the repeated
// linear-input edges share one structure, and an edge can be another's
// transpose with the directions exchanged. FracKey names the structure by
// exact bytes, and BlockEval.FillRow fills every matrix of a group from one
// leader row.
//
// The arithmetic — operand values, multiplication order, accumulation order —
// is exactly MeasureFwd/MeasureBwd's volume-free partial-sum tree, so results
// are bit-identical; the equivalence is pinned by tests, among them core's
// search tests, whose reference fills every edge matrix by Measure.
// Identical keys imply identical operands at every step (pattern ids and
// node-block ids are assigned by exact byte equality, never by hash), which
// is why memoization is exact.
package cost

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
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
// search. It interns axis patterns by exact byte equality — each candidate
// space's pattern (Patterns) once per search — and maps each (provider
// pattern, need pattern) pair to a node vector: the pair's per-device-pair
// overlap vector, split into deduplicated node blocks. Each pair's vector is
// computed once, however many edges and axis pairings meet it. It also
// recycles the memo tables of released BlockEvals, so a search's matrices
// reuse each other's memos instead of allocating fresh ones. Safe for
// concurrent use: edge matrices build concurrently.
type OverlapTables struct {
	devices, perNode int

	mu       sync.Mutex
	patIDs   map[string]int32 // pattern bytes (width, then every start) -> pattern id
	pats     []axisPattern
	spaceReg map[*Patterns][]int32 // space pattern (index into Patterns.first) -> pattern id, -1 until met
	pairVec  map[uint64]int32      // provider<<32 | need pattern ids -> node-vector id
	blkIDs   map[string]int32
	blks     []float64 // [bid*perNode² ...] deduped node blocks
	vecIDs   map[string]int32
	vecs     []int32   // vid*nodes+g -> node-block id
	ov       []float64 // scratch: one pair's device-pair overlap vector
	vecKey   []int32   // scratch: one pair's node-block ids
	keyBuf   []byte
	free     [][]cellSlot // slot arrays of released memos

	// Scratch of one axis pairing's build: vecLoc[vid] / blkLoc[bid] are
	// its local ids of the registry's node vectors and blocks, -1 when the
	// pairing has not met them (they grow with vecs and blks); vecSeen /
	// blkSeen list the ones it met, in local order, so build resets them
	// after the pairing; locVecs is its vecs in local block ids.
	vecLoc, blkLoc   []int32
	vecSeen, blkSeen []int32
	locVecs          []int32
}

// NewOverlapTables returns an empty registry for a cluster of the given
// device count and node width.
func NewOverlapTables(devices, perNode int) *OverlapTables {
	return &OverlapTables{
		devices: devices, perNode: perNode,
		patIDs:   make(map[string]int32),
		spaceReg: make(map[*Patterns][]int32),
		pairVec:  make(map[uint64]int32),
		blkIDs:   make(map[string]int32),
		vecIDs:   make(map[string]int32),
		ov:       make([]float64, devices*perNode),
		vecKey:   make([]int32, devices/perNode),
	}
}

// spacePatterns appends to dst the registry id of each pattern of ps that
// ids number on axis ax in the given pass, interning a pattern by its bytes
// the first time this registry meets it. The caller holds t.mu.
func (t *OverlapTables) spacePatterns(dst []int32, ps *Patterns, ax int, fwd bool, ids []int32) []int32 {
	reg := t.spaceReg[ps]
	if reg == nil {
		reg = make([]int32, len(ps.first))
		for i := range reg {
			reg[i] = -1
		}
		t.spaceReg[ps] = reg
	}
	base := ps.base[ps.slot(ax, fwd)]
	for _, id := range ids {
		r := &reg[base+int(id)]
		if *r < 0 {
			pat := ps.pattern(ax, fwd, id)
			t.keyBuf = pat.appendKey(t.keyBuf[:0])
			pid, ok := t.patIDs[string(t.keyBuf)]
			if !ok {
				pid = int32(len(t.pats))
				t.patIDs[string(t.keyBuf)] = pid
				t.pats = append(t.pats, pat)
			}
			*r = pid
		}
		dst = append(dst, *r)
	}
	return dst
}

// vector returns the node-vector id of provider pattern prov covering need
// pattern need, computing and deduplicating it on first sight. The caller
// holds t.mu.
func (t *OverlapTables) vector(prov, need int32) int32 {
	k := uint64(prov)<<32 | uint64(need)
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
				pv.start(nodeStart+j), pv.width,
				nd.start(dev), nd.width, nd.width)
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
			t.blkLoc = append(t.blkLoc, -1)
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
		t.vecLoc = append(t.vecLoc, -1)
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
	// rowReg/colReg are rowPat/colPat translated to the registry's pattern
	// ids, which every calc of the search shares: the fraction key
	// (FracKey) compares them across edges.
	rowReg [][]int32 // [pair][row rep] -> registry pattern id
	colReg [][]int32 // [pair][col rep] -> registry pattern id

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
// representatives — srcReps index the producer output interfaces that src
// interns (the row groups), dstReps the consumer input interfaces that dst
// interns (the column groups) — taking its overlap vectors from t, which
// must describe the plan's cluster shape. Returns nil when the pattern
// tables would exceed calcTableLimit; callers must then fall back to
// Measure.
func (p *EdgePlan) NewCalc(t *OverlapTables, src *Patterns, srcReps []int32, dst *Patterns, dstReps []int32) *EdgeCalc {
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
	if !c.fwd.build(t, p, fp, src, srcReps, dst, dstReps, true) {
		return nil
	}
	if !c.bwd.build(t, p, bp, src, srcReps, dst, dstReps, false) {
		return nil
	}
	c.fwdVol = make([]float64, len(dstReps))
	for ci, d := range dstReps {
		v := p.dstFull
		for _, dax := range p.fwdDst {
			v *= dst.ifaces[d].Width[dax]
		}
		c.fwdVol[ci] = v
	}
	c.bwdVol = make([]float64, len(srcReps))
	for ri, r := range srcReps {
		v := p.srcFull
		for _, sa := range p.bwdSrc {
			v *= src.ifaces[r].Width[sa]
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
// uniform interval width and every device's interval start, read in place
// from the interface pass array it was first seen in (device dev's start at
// starts[dev*stride]).
type axisPattern struct {
	width        float64
	starts       []float64
	devs, stride int
}

// start returns device dev's interval start.
func (a *axisPattern) start(dev int) float64 { return a.starts[dev*a.stride] }

// appendKey appends the pattern's exact bytes: the little-endian width, then
// every start.
func (a *axisPattern) appendKey(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a.width))
	for dev := 0; dev < a.devs; dev++ {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a.start(dev)))
	}
	return b
}

// Patterns interns the axis patterns of one list of interfaces, typically a
// candidate space's output or input interfaces: for every axis and pass
// (forward, backward), each interface's pattern id, numbering that axis and
// pass's distinct patterns in first-seen order. Patterns are grouped by
// exact byte equality — never by hash — so two interfaces share an id
// exactly when their width and every device's start on that axis are
// bit-equal in that pass. A pattern is stored as the index of the first
// interface that has it, so the index costs a few bytes per interface on
// top of the interfaces it reads. Read-only once built, so one Patterns
// serves every edge of every search that uses the space.
type Patterns struct {
	ifaces  []*Iface
	numAxes int
	// ids[i*numAxes*2+slot] is interface i's pattern id in that slot. A
	// space's slots hold at most a few dozen patterns each, so the ids are
	// kept as bytes (ids8) whenever every slot fits 256, which quarters
	// what the node tier holds for them; exactly one of the two is set.
	ids   []int32
	ids8  []uint8
	first []int32 // base[slot]+id -> the first interface with that pattern
	base  []int   // [slot] offset of the slot's patterns in first, then len(first)
}

// NewPatterns interns the patterns of ifaces, which must share one axis
// count and one device count and stay unmodified while the result is used.
func NewPatterns(ifaces []*Iface) *Patterns {
	p := &Patterns{ifaces: ifaces}
	if len(ifaces) == 0 {
		return p
	}
	na := ifaces[0].NumAxes
	devs := len(ifaces[0].Fwd) / na
	p.numAxes = na
	ids := make([]int32, len(ifaces)*na*2)
	narrow := true
	p.base = make([]int, na*2+1)
	byKey := make(map[string]int32)
	key := make([]byte, 8*(1+devs))
	for sl := 0; sl < na*2; sl++ {
		ax := sl / 2
		p.base[sl] = len(p.first)
		clear(byKey)
		for i, ifc := range ifaces {
			arr := ifc.Fwd
			if sl%2 == 1 {
				arr = ifc.Bwd
			}
			binary.LittleEndian.PutUint64(key, math.Float64bits(ifc.Width[ax]))
			for dev := 0; dev < devs; dev++ {
				binary.LittleEndian.PutUint64(key[8*(1+dev):], math.Float64bits(arr[dev*na+ax]))
			}
			id, ok := byKey[string(key)]
			if !ok {
				id = int32(len(p.first) - p.base[sl])
				byKey[string(key)] = id
				p.first = append(p.first, int32(i))
			}
			ids[i*na*2+sl] = id
		}
		narrow = narrow && len(p.first)-p.base[sl] <= 1<<8
	}
	p.base[na*2] = len(p.first)
	if !narrow {
		p.ids = ids
		return p
	}
	p.ids8 = make([]uint8, len(ids))
	for k, id := range ids {
		p.ids8[k] = uint8(id)
	}
	return p
}

// pattern returns the pattern numbered id on axis ax in the given pass.
func (p *Patterns) pattern(ax int, fwd bool, id int32) axisPattern {
	ifc := p.ifaces[p.first[p.base[p.slot(ax, fwd)]+int(id)]]
	arr := ifc.Fwd
	if !fwd {
		arr = ifc.Bwd
	}
	return axisPattern{width: ifc.Width[ax], starts: arr[ax:], devs: len(arr) / p.numAxes, stride: p.numAxes}
}

// slot numbers the (axis, pass) combinations.
func (p *Patterns) slot(ax int, fwd bool) int {
	if fwd {
		return ax * 2
	}
	return ax*2 + 1
}

// Len returns the number of interfaces interned.
func (p *Patterns) Len() int { return len(p.ifaces) }

// ID returns interface i's pattern id on axis ax in the forward (fwd) or
// backward pass.
func (p *Patterns) ID(i, ax int, fwd bool) int32 { return p.id(i*p.numAxes*2 + p.slot(ax, fwd)) }

// id returns the pattern id at position k of ids.
func (p *Patterns) id(k int) int32 {
	if p.ids8 != nil {
		return int32(p.ids8[k])
	}
	return p.ids[k]
}

// LocalIDs numbers the patterns the interfaces reps take on axis ax in the
// given pass, in first-seen order: ids[k] is reps[k]'s local id, and
// space[l] is local id l's pattern id in p.
func (p *Patterns) LocalIDs(reps []int32, ax int, fwd bool) (ids, space []int32) {
	sl := p.slot(ax, fwd)
	loc := make([]int32, p.base[sl+1]-p.base[sl])
	for i := range loc {
		loc[i] = -1
	}
	ids = make([]int32, len(reps))
	for k, r := range reps {
		id := p.id(int(r)*p.numAxes*2 + sl)
		if loc[id] < 0 {
			loc[id] = int32(len(space))
			space = append(space, id)
		}
		ids[k] = loc[id]
	}
	return ids, space
}

// build fills one direction's pattern ids and node-factoring indexes from
// the registry t. Reports false when a pairing's dense table would exceed
// calcTableLimit.
func (d *dirCalc) build(t *OverlapTables, p *EdgePlan, pairs []axisPair, src *Patterns, srcReps []int32, dst *Patterns, dstReps []int32, fwdPass bool) bool {
	d.pairs = pairs
	d.perNode = p.perNode
	d.nodes = p.devices / p.perNode
	n := p.devices * p.perNode
	blkLen := p.perNode * p.perNode
	var srcPat, dstPat []int32
	// One backing array for every pair's registry ids of both sides.
	reg := make([]int32, len(pairs)*(len(srcReps)+len(dstReps)))
	for _, pr := range pairs {
		srcIDs, srcSpace := src.LocalIDs(srcReps, pr.sa, fwdPass)
		dstIDs, dstSpace := dst.LocalIDs(dstReps, pr.dax, fwdPass)
		nr, nc := len(srcSpace), len(dstSpace)
		if nr*nc*n > calcTableLimit {
			return false
		}
		// Number the registry's node vectors and blocks locally, in the
		// (rp, cp, node) first-seen order: an equal vector has equal
		// blocks, so a block can only be new inside a new vector.
		cellVec := make([]int32, nr*nc)
		t.mu.Lock()
		srcPat = t.spacePatterns(srcPat[:0], src, pr.sa, fwdPass, srcSpace)
		dstPat = t.spacePatterns(dstPat[:0], dst, pr.dax, fwdPass, dstSpace)
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
				vid := t.vecLoc[gv]
				if vid < 0 {
					vid = int32(len(t.vecSeen))
					t.vecLoc[gv] = vid
					t.vecSeen = append(t.vecSeen, gv)
					for _, gb := range t.vecs[int(gv)*d.nodes:][:d.nodes] {
						bid := t.blkLoc[gb]
						if bid < 0 {
							bid = int32(len(t.blkSeen))
							t.blkLoc[gb] = bid
							t.blkSeen = append(t.blkSeen, gb)
						}
						t.locVecs = append(t.locVecs, bid)
					}
				}
				cellVec[rp*nc+cp] = vid
			}
		}
		vecs := slices.Clone(t.locVecs)
		blks := make([]float64, len(t.blkSeen)*blkLen)
		for bid, gb := range t.blkSeen {
			copy(blks[bid*blkLen:], t.blks[int(gb)*blkLen:][:blkLen])
		}
		d.nBlk = append(d.nBlk, int32(len(t.blkSeen)))
		d.nVec = append(d.nVec, int32(len(t.vecSeen)))
		for _, gv := range t.vecSeen {
			t.vecLoc[gv] = -1
		}
		for _, gb := range t.blkSeen {
			t.blkLoc[gb] = -1
		}
		t.vecSeen, t.blkSeen, t.locVecs = t.vecSeen[:0], t.blkSeen[:0], t.locVecs[:0]
		t.mu.Unlock()
		d.rowPat = append(d.rowPat, srcIDs)
		d.colPat = append(d.colPat, dstIDs)
		var rowReg, colReg []int32
		rowReg, reg = regIDs(reg, srcIDs, srcPat)
		colReg, reg = regIDs(reg, dstIDs, dstPat)
		d.rowReg = append(d.rowReg, rowReg)
		d.colReg = append(d.colReg, colReg)
		d.nColPat = append(d.nColPat, nc)
		d.blks = append(d.blks, blks)
		d.vecs = append(d.vecs, vecs)
		d.cellVec = append(d.cellVec, cellVec)
	}
	return true
}

// regIDs maps per-rep local pattern ids to registry pattern ids, writing
// them to the front of buf; it returns them and the rest of buf.
func regIDs(buf, local, reg []int32) (ids, rest []int32) {
	ids, rest = buf[:len(local):len(local)], buf[len(local):]
	for i, id := range local {
		ids[i] = reg[id]
	}
	return ids, rest
}

// FracKey returns the exact bytes of the calc's coverage-fraction structure:
// the rep counts, then per direction (forward, then backward) the pair count
// and each pair's registry pattern id of every row rep and every column rep.
// A cell's fraction pair in a direction is a pure function of its per-pair
// (provider, need) registry patterns in pair order, so two calcs on one
// registry with equal keys have bit-identical fraction matrices. With
// swapped set, the key describes the transposed structure — rows and
// columns swapped, the backward direction first — so a calc whose direct
// key equals another's swapped key has the other's fractions transposed,
// forward and backward exchanged. The key is compared byte for byte, never
// hashed.
func (c *EdgeCalc) FracKey(swapped bool) string {
	rows, cols := uint32(len(c.bwdVol)), uint32(len(c.fwdVol))
	first, second := &c.fwd, &c.bwd
	if swapped {
		rows, cols = cols, rows
		first, second = second, first
	}
	n := 2
	for _, d := range []*dirCalc{first, second} {
		n += 1 + len(d.pairs)*int(rows+cols)
	}
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, 4*n), rows)
	b = binary.LittleEndian.AppendUint32(b, cols)
	for _, d := range []*dirCalc{first, second} {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(d.pairs)))
		for i := range d.pairs {
			r, cl := d.rowReg[i], d.colReg[i]
			if swapped {
				r, cl = cl, r
			}
			for _, id := range r {
				b = binary.LittleEndian.AppendUint32(b, uint32(id))
			}
			for _, id := range cl {
				b = binary.LittleEndian.AppendUint32(b, uint32(id))
			}
		}
	}
	return string(b)
}

// frac is one folded (intra, inter) coverage-fraction pair — either a single
// node's or, in the cell memo, the whole machine's.
type frac struct{ fi, fe float64 }

// dirEval is one direction's per-goroutine memo state and cell compute.
type dirEval struct {
	d     *dirCalc
	cells cellTab
	combo cellTab
	buf   []float64 // perNode² scratch for combined node blocks
	vids  []int32   // per-pair node-vector ids of the current cell
}

// compute evaluates the current cell (node-vector ids in de.vids) from node
// contributions, reproducing MeasureFwd/MeasureBwd's volume-free partial-sum
// tree exactly.
func (de *dirEval) compute() frac {
	d := de.d
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

// BlockEval fills whole matrix rows through one streaming loop. Per row it
// hoists each pair's cellVec row slice once, packs cell keys with pure loads,
// and consecutive cells that repeat the same node-vector key reuse the
// previous result without a probe; the fractions then fuse with the edge
// volumes in registers. Values are bit-identical to EdgePlan.Measure on the
// same interfaces: misses run compute(), which reproduces Measure's
// partial-sum tree exactly.
//
// Earlier drafts interned whole rows/columns (by vid-slice signature) or
// per-pair column-pattern tuples into dense block tables, and fronted the
// memo with a small epoch-tagged per-row cache; measurement rejected all
// three. The groupings are the identity here — the interface grouping
// upstream (ifaceGroups) already leaves zero row/column duplication, and
// distinct pattern tuples never repeat within a matrix — and the extra cache
// cost more in lookup overhead than it saved in memo misses. A per-row
// (vid₀ × vid₁) grid for two-pair directions was deleted because no edge of
// a paper model has two mapped pairs in a direction (each has three or
// four), and a general-k row grid measured slower than the plain probe.
// What does repeat is the fraction structure ACROSS a layer's edges
// (FracKey): FillRow computes a leader row once for every member matrix.
//
// Create one per goroutine (via Block); the memo and row buffers are private.
// Release it when done, so the search's later matrices reuse its memos.
type BlockEval struct {
	c        *EdgeCalc
	fwd, bwd dirStream
}

// dirStream is one direction's streaming row-fill state.
type dirStream struct {
	de    dirEval
	row   []frac    // per-column fractions of the current row
	rowSl [][]int32 // per pair: cellVec row slice of the current row
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
}

// fillRow computes the direction's coverage fractions of row ri for every
// column into s.row: each cell is compute() of its node-vector ids, taken
// from the memo when its key was seen before.
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
		// the memo off), so no key-based reuse: evaluate each cell directly.
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

// MeasureRow fills out[ci] with the edge's Traffic for (row rep ri, column
// rep ci) for every column rep, bit-identical to
// p.Measure(srcReps[ri], dstReps[ci]).
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

// FracMember is one matrix a leader's fraction rows fill: its calc, its
// row-major storage of RedistributeDetail values (len(rows)·len(cols) of
// Calc), and whether its fraction structure is the leader's transposed
// (Calc's FracKey(false) equals the leader's FracKey(true)) rather than the
// leader's own (equal FracKey(false)).
type FracMember struct {
	Calc       *EdgeCalc
	Vals       []float64
	Transposed bool
}

// FillRow computes the fractions of the leader's row ri once — be's calc is
// the leader — and writes m.RedistributeDetail of each member's cells that
// they determine: row ri of a direct member, and column ri of a transposed
// one, whose forward fractions are the leader's backward ones and vice
// versa. Each member's cells take its own volumes and element bytes, so
// every value is bit-identical to m.RedistributeDetail of that member's
// EdgePlan.Measure on the same interfaces.
func (be *BlockEval) FillRow(m *Model, ri int, members []FracMember) {
	be.fwd.fillRow(ri)
	be.bwd.fillRow(ri)
	fRow, bRow := be.fwd.row, be.bwd.row
	for _, mb := range members {
		c := mb.Calc
		eb := c.p.eb
		if !mb.Transposed {
			out := mb.Vals[ri*len(fRow):][:len(fRow)]
			fVol := c.fwdVol
			bv := c.bwdVol[ri]
			for ci := range out {
				f, b := fRow[ci], bRow[ci]
				fv := fVol[ci]
				out[ci] = m.RedistributeDetail(Traffic{
					FwdIntra: fv * f.fi * eb, FwdInter: fv * f.fe * eb,
					BwdIntra: bv * b.fi * eb, BwdInter: bv * b.fe * eb,
				})
			}
			continue
		}
		// The member's cell (r, ri) for every leader column r.
		nc := len(c.fwdVol)
		fv := c.fwdVol[ri]
		bVol := c.bwdVol
		for r := range fRow {
			f, b := bRow[r], fRow[r]
			bv := bVol[r]
			mb.Vals[r*nc+ri] = m.RedistributeDetail(Traffic{
				FwdIntra: fv * f.fi * eb, FwdInter: fv * f.fe * eb,
				BwdIntra: bv * b.fi * eb, BwdInter: bv * b.fe * eb,
			})
		}
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
