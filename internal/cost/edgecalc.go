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
//     vectors". Edges keep the registry's ids; nothing is renumbered per
//     edge.
//  2. A direction's coverage-fraction pair is a pure function of the cell's
//     tuple of registry node-vector ids in pair order — Measure keeps the
//     moved volume out of its accumulation tree precisely so this holds — so
//     each distinct tuple is evaluated once per fill band and memoized under
//     its exact packed ids. The memos belong to the search's registry, not
//     to an edge: a fraction computed for one edge or direction serves every
//     other edge and direction of the search that meets its tuple, and the
//     millions of remaining cells are a hash probe each.
//  3. Evaluating a distinct tuple folds per-node coverage fractions that are
//     themselves memoized per tuple of registry node-block ids, so even the
//     miss path touches perNode² floats per node instead of re-walking every
//     device.
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
	"sync"
)

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
// holds the search's fraction memos (fracMemo), keyed by its own ids, which
// the fill bands take in Block and hand back in Release; they die with the
// registry or at DropMemos, so no search starts from another's fractions.
// Safe for concurrent use: edge matrices build and fill concurrently.
type OverlapTables struct {
	devices, perNode int

	mu       sync.Mutex
	patIDs   map[string]int32 // pattern bytes (width, then every start) -> pattern id
	pats     []axisPattern
	spaceReg map[*Patterns][]int32 // space pattern (index into Patterns.widths) -> pattern id, -1 until met
	pairVec  map[uint64]int32      // provider<<32 | need pattern ids -> node-vector id
	blkIDs   map[string]int32
	blks     []float64 // [bid*perNode² ...] deduped node blocks
	vecIDs   map[string]int32
	vecs     []int32   // vid*nodes+g -> node-block id
	ov       []float64 // scratch: one pair's device-pair overlap vector
	vecKey   []int32   // scratch: one pair's node-block ids
	keyBuf   []byte
	memos    []*fracMemo // memos no fill band holds
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
		reg = make([]int32, len(ps.widths))
		for i := range reg {
			reg[i] = -1
		}
		t.spaceReg[ps] = reg
	}
	base := ps.base[ps.slot(ax, fwd)]
	for _, id := range ids {
		r := &reg[base+int(id)]
		if *r < 0 {
			var pat axisPattern
			pat.width, pat.starts = ps.Pattern(ax, fwd, id)
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
	// cellVec[pair][rp*nColPat+cp] is the registry node-vector id of the
	// pairing's (row pattern, column pattern) cell. Ids trace back to exact
	// byte equality, so equal ids imply bit-equal operands.
	cellVec [][]int32
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
// must describe the plan's cluster shape.
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
	c.fwd.build(t, fp, src, srcReps, dst, dstReps, true)
	c.bwd.build(t, bp, src, srcReps, dst, dstReps, false)
	c.fwdVol = make([]float64, len(dstReps))
	for ci, d := range dstReps {
		v := p.dstFull
		for _, dax := range p.fwdDst {
			v *= dst.width(int(d), dax)
		}
		c.fwdVol[ci] = v
	}
	c.bwdVol = make([]float64, len(srcReps))
	for ri, r := range srcReps {
		v := p.srcFull
		for _, sa := range p.bwdSrc {
			v *= src.width(int(r), sa)
		}
		c.bwdVol[ri] = v
	}
	return c
}

// axisPattern describes one distinct distribution of a single axis: its
// uniform interval width and every device's interval start.
type axisPattern struct {
	width  float64
	starts []float64
}

// start returns device dev's interval start.
func (a *axisPattern) start(dev int) float64 { return a.starts[dev] }

// appendKey appends the pattern's exact bytes: the little-endian width, then
// every start.
func (a *axisPattern) appendKey(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a.width))
	for _, v := range a.starts {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// Patterns interns the axis patterns of one list of interfaces, typically a
// candidate space's output or input interfaces: for every axis and pass
// (forward, backward), each interface's pattern id, numbering that axis and
// pass's distinct patterns in first-seen order. Patterns are grouped by
// exact byte equality — never by hash — so two interfaces share an id
// exactly when their width and every device's start on that axis are
// bit-equal in that pass. Each distinct pattern's width and starts are
// stored once, so the interfaces themselves need not outlive the build (the
// node pass never builds them: Model.SpacePatterns). Read-only once built,
// so one Patterns serves every edge of every search that uses the space.
type Patterns struct {
	n, numAxes, devs int
	// ids[i*numAxes*2+slot] is interface i's pattern id in that slot. A
	// space's slots hold at most a few dozen patterns each, so the ids are
	// kept as bytes (ids8) whenever every slot fits 256, which quarters
	// what a cached node entry holds for them; exactly one of the two is set.
	ids  []int32
	ids8 []uint8
	// widths[base[slot]+id] is the width of the slot's pattern id, and
	// starts[(base[slot]+id)*devs+dev] device dev's start in it.
	widths []float64
	starts []float64
	base   []int // [slot] offset of the slot's patterns in widths, then len(widths)
}

// patternBuilder numbers each slot's distinct patterns by exact bytes, in
// the order intern meets them.
type patternBuilder struct {
	p     *Patterns
	ids   []int32
	slots []slotPatterns
	key   []byte
}

// slotPatterns is one slot's distinct patterns so far.
type slotPatterns struct {
	byKey  map[string]int32
	widths []float64
	starts []float64
}

func newPatternBuilder(n, numAxes, devs int) *patternBuilder {
	b := &patternBuilder{
		p:     &Patterns{n: n, numAxes: numAxes, devs: devs},
		ids:   make([]int32, n*numAxes*2),
		slots: make([]slotPatterns, numAxes*2),
	}
	for sl := range b.slots {
		b.slots[sl].byKey = make(map[string]int32)
	}
	return b
}

// intern returns slot sl's id of the pattern with width w and starts st,
// numbering it next if the slot has not met its bytes before.
func (b *patternBuilder) intern(sl int, w float64, st []float64) int32 {
	b.key = (&axisPattern{width: w, starts: st}).appendKey(b.key[:0])
	s := &b.slots[sl]
	id, ok := s.byKey[string(b.key)]
	if !ok {
		id = int32(len(s.widths))
		s.byKey[string(b.key)] = id
		s.widths = append(s.widths, w)
		s.starts = append(s.starts, st...)
	}
	return id
}

// finish lays the slots' patterns out in slot order and returns the
// Patterns, with byte ids when every slot fits them.
func (b *patternBuilder) finish() *Patterns {
	p := b.p
	p.base = make([]int, len(b.slots)+1)
	n := 0
	for _, s := range b.slots {
		n += len(s.widths)
	}
	p.widths, p.starts = make([]float64, 0, n), make([]float64, 0, n*p.devs)
	narrow := true
	for sl, s := range b.slots {
		p.base[sl] = len(p.widths)
		p.widths = append(p.widths, s.widths...)
		p.starts = append(p.starts, s.starts...)
		narrow = narrow && len(s.widths) <= 1<<8
	}
	p.base[len(b.slots)] = len(p.widths)
	if !narrow {
		p.ids = b.ids
		return p
	}
	p.ids8 = make([]uint8, len(b.ids))
	for k, id := range b.ids {
		p.ids8[k] = uint8(id)
	}
	return p
}

// NewPatterns interns the patterns of ifaces, which must share one axis
// count and one device count. It is the reference SpacePatterns is pinned
// to; the node pass does not use it.
func NewPatterns(ifaces []*Iface) *Patterns {
	if len(ifaces) == 0 {
		return &Patterns{}
	}
	na := ifaces[0].NumAxes
	devs := len(ifaces[0].Fwd) / na
	b := newPatternBuilder(len(ifaces), na, devs)
	st := make([]float64, devs)
	for i, ifc := range ifaces {
		for sl := 0; sl < na*2; sl++ {
			ax := sl / 2
			arr := ifc.Fwd
			if sl%2 == 1 {
				arr = ifc.Bwd
			}
			for dev := range st {
				st[dev] = arr[dev*na+ax]
			}
			b.ids[i*na*2+sl] = b.intern(sl, ifc.Width[ax], st)
		}
	}
	return b.finish()
}

// Count returns the number of distinct patterns on axis ax in the given
// pass.
func (p *Patterns) Count(ax int, fwd bool) int {
	sl := p.slot(ax, fwd)
	return p.base[sl+1] - p.base[sl]
}

// Pattern returns the width and every device's start of the pattern
// numbered id on axis ax in the given pass. The starts are p's own storage
// and must not be modified.
func (p *Patterns) Pattern(ax int, fwd bool, id int32) (width float64, starts []float64) {
	k := p.base[p.slot(ax, fwd)] + int(id)
	return p.widths[k], p.starts[k*p.devs : (k+1)*p.devs]
}

// width returns interface i's interval width on axis ax.
func (p *Patterns) width(i, ax int) float64 {
	return p.widths[p.base[p.slot(ax, true)]+int(p.ID(i, ax, true))]
}

// slot numbers the (axis, pass) combinations.
func (p *Patterns) slot(ax int, fwd bool) int {
	if fwd {
		return ax * 2
	}
	return ax*2 + 1
}

// Len returns the number of interfaces interned.
func (p *Patterns) Len() int { return p.n }

// Words counts the 8-byte words p pins: the ids, and every distinct
// pattern's width and starts.
func (p *Patterns) Words() int64 {
	return int64(len(p.ids)+1)/2 + int64(len(p.ids8)+7)/8 + int64(len(p.widths)+len(p.starts)+len(p.base))
}

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

// build fills one direction's pattern ids and registry node-vector ids from
// the registry t.
func (d *dirCalc) build(t *OverlapTables, pairs []axisPair, src *Patterns, srcReps []int32, dst *Patterns, dstReps []int32, fwdPass bool) {
	d.pairs = pairs
	var srcPat, dstPat []int32
	// One backing array for every pair's registry ids of both sides.
	reg := make([]int32, len(pairs)*(len(srcReps)+len(dstReps)))
	for _, pr := range pairs {
		srcIDs, srcSpace := src.LocalIDs(srcReps, pr.sa, fwdPass)
		dstIDs, dstSpace := dst.LocalIDs(dstReps, pr.dax, fwdPass)
		nr, nc := len(srcSpace), len(dstSpace)
		cellVec := make([]int32, nr*nc)
		t.mu.Lock()
		srcPat = t.spacePatterns(srcPat[:0], src, pr.sa, fwdPass, srcSpace)
		dstPat = t.spacePatterns(dstPat[:0], dst, pr.dax, fwdPass, dstSpace)
		for rp, sp := range srcPat {
			for cp, dp := range dstPat {
				// Both directions are the same provider-covers-need fill:
				// forward the producer (src) provides for the consumer
				// (dst), backward the consumer provides for the producer.
				if fwdPass {
					cellVec[rp*nc+cp] = t.vector(sp, dp)
				} else {
					cellVec[rp*nc+cp] = t.vector(dp, sp)
				}
			}
		}
		t.mu.Unlock()
		d.rowPat = append(d.rowPat, srcIDs)
		d.colPat = append(d.colPat, dstIDs)
		var rowReg, colReg []int32
		rowReg, reg = regIDs(reg, srcIDs, srcPat)
		colReg, reg = regIDs(reg, dstIDs, dstPat)
		d.rowReg = append(d.rowReg, rowReg)
		d.colReg = append(d.colReg, colReg)
		d.nColPat = append(d.nColPat, nc)
		d.cellVec = append(d.cellVec, cellVec)
	}
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

// fracMemo is a fill band's coverage-fraction memo: cells maps a
// direction's tuple of registry node-vector ids, combo one node's tuple of
// registry node-block ids, to the folded fraction pair it yields. A tuple's
// fraction is the same for every edge and either direction, so one memo
// serves every matrix and direction its bands fill, and the registry keeps
// it from band to band for the rest of the search.
//
// A key is the tuple's pair count followed by its ids in pair order, each
// id in the table's width bits. The count leads, so tuples of different
// lengths never share a key. A table's width is set when it starts empty
// and only changes by restarting it empty (cellTab.widen), so within one
// table every key names exactly one tuple, however much the registry grows
// meanwhile.
type fracMemo struct{ cells, combo cellTab }

// keyFits reports whether a key of k ids of width bits each, behind the
// count k, stays below 2^63 and so packs exactly into a cellTab key.
func keyFits(k int, width uint) bool { return bits.Len(uint(k))+k*int(width) <= 63 }

// dirEval is one direction's cell compute over its band's registry view and
// memo.
type dirEval struct {
	d  *dirCalc
	be *BlockEval
	// cellKeys/comboKeys report whether the direction's tuples pack into
	// the memo's keys; when false that memo level is skipped and values are
	// computed directly (identical results, just slower).
	cellKeys, comboKeys bool
	buf                 []float64 // perNode² scratch for combined node blocks
	vids                []int32   // per-pair node-vector ids of the current cell
}

// compute evaluates the current cell (node-vector ids in de.vids) from node
// contributions, reproducing MeasureFwd/MeasureBwd's volume-free partial-sum
// tree exactly.
func (de *dirEval) compute() frac {
	be := de.be
	combo := &be.memo.combo
	var tot frac
	for g := 0; g < be.nodes; g++ {
		var fr frac
		if de.comboKeys {
			ck := uint64(len(de.vids))
			for _, vid := range de.vids {
				ck = ck<<combo.width | uint64(be.vecs[int(vid)*be.nodes+g])
			}
			var ok bool
			if fr, ok = combo.get(ck); !ok {
				fr = de.comboFrac(g)
				combo.put(ck, fr)
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
	be := de.be
	pn := be.perNode
	blkLen := pn * pn
	buf := de.buf
	b0 := int(be.vecs[int(de.vids[0])*be.nodes+g]) * blkLen
	copy(buf, be.blks[b0:b0+blkLen])
	for _, vid := range de.vids[1:] {
		bo := int(be.vecs[int(vid)*be.nodes+g]) * blkLen
		blk := be.blks[bo : bo+blkLen]
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
// The memo a BlockEval probes is the search's, not the matrix's: Block takes
// one of the registry's fracMemos (or starts one at two slots) and Release
// hands it back, entries and all, so a fraction computed for one edge or
// direction is a hit for every later band that meets its tuple, in any
// matrix and either direction — the repeated tuples of different fraction
// structures, and the backward half of a self-transposed edge, whose tuples
// its forward half already met. The memos grow on demand and die with the
// registry or at DropMemos.
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
// Create one per goroutine (via Block); the memo and row buffers are private
// until Release.
type BlockEval struct {
	c        *EdgeCalc
	fwd, bwd dirStream
	memo     *fracMemo
	// vecs and blks are the registry's node vectors and blocks as of Block.
	// They hold every id of c, and the registry only appends to them, so
	// the band reads them without the registry's lock.
	vecs           []int32
	blks           []float64
	nodes, perNode int
}

// dirStream is one direction's streaming row-fill state.
type dirStream struct {
	de    dirEval
	row   []frac    // per-column fractions of the current row
	rowSl [][]int32 // per pair: cellVec row slice of the current row
}

// Block returns a per-goroutine streaming row evaluator holding one of the
// registry's fraction memos.
func (c *EdgeCalc) Block() *BlockEval {
	t := c.t
	be := &BlockEval{c: c, nodes: t.devices / t.perNode, perNode: t.perNode}
	t.mu.Lock()
	if n := len(t.memos); n > 0 {
		be.memo, t.memos = t.memos[n-1], t.memos[:n-1]
	} else {
		be.memo = new(fracMemo)
	}
	be.vecs, be.blks = t.vecs, t.blks
	vecBits, blkBits := uint(bits.Len(uint(len(t.vecIDs)))), uint(bits.Len(uint(len(t.blkIDs))))
	t.mu.Unlock()
	be.memo.cells.widen(vecBits)
	be.memo.combo.widen(blkBits)
	nCols := len(c.fwdVol)
	be.fwd.init(be, &c.fwd, nCols)
	be.bwd.init(be, &c.bwd, nCols)
	return be
}

// Release hands the evaluator's memo back to the registry for the search's
// later bands; be must not be used afterwards.
func (be *BlockEval) Release() {
	t := be.c.t
	t.mu.Lock()
	t.memos = append(t.memos, be.memo)
	t.mu.Unlock()
	be.memo = nil
}

// DropMemos releases the fraction memos no fill band holds, so a registry
// kept for later fills pins none between them; later bands start fresh
// memos, which only costs recomputing fractions. Call it when no band holds
// a memo.
func (t *OverlapTables) DropMemos() {
	t.mu.Lock()
	t.memos = nil
	t.mu.Unlock()
}

// Words counts the 8-byte words the registry pins for later fills: its
// patterns, node blocks and vectors and the interning maps behind them,
// each map entry as its key bytes plus two words. The fraction memos are
// not counted (DropMemos).
func (t *OverlapTables) Words() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int64(4*len(t.pats)) + int64(len(t.blks)) + int64(len(t.vecs)+len(t.vecKey)+1)/2 + int64(len(t.ov))
	for _, m := range [...]map[string]int32{t.patIDs, t.blkIDs, t.vecIDs} {
		for k := range m {
			n += int64(len(k)+7)/8 + 2
		}
	}
	n += 2 * int64(len(t.pairVec))
	for _, reg := range t.spaceReg {
		n += int64(len(reg)+1)/2 + 2
	}
	return n
}

// Words counts the 8-byte words the calc pins: both directions' pattern,
// registry and cell-vector ids and the edge volumes.
func (c *EdgeCalc) Words() int64 {
	var ids int64
	for _, d := range [...]*dirCalc{&c.fwd, &c.bwd} {
		for i := range d.pairs {
			ids += int64(len(d.rowPat[i]) + len(d.colPat[i]) + len(d.rowReg[i]) + len(d.colReg[i]) + len(d.cellVec[i]))
		}
	}
	return (ids+1)/2 + int64(len(c.fwdVol)+len(c.bwdVol))
}

func (s *dirStream) init(be *BlockEval, d *dirCalc, nCols int) {
	k := len(d.pairs)
	s.de = dirEval{d: d, be: be,
		cellKeys:  keyFits(k, be.memo.cells.width),
		comboKeys: keyFits(k, be.memo.combo.width),
		buf:       make([]float64, be.perNode*be.perNode), vids: make([]int32, k)}
	s.row = make([]frac, nCols) // stays all-zero for an unmapped direction
	s.rowSl = make([][]int32, k)
}

// fillRow computes the direction's coverage fractions of row ri at the
// columns cols into s.row (the other columns keep stale values): each cell
// is compute() of its node-vector ids, taken from the memo when its key was
// seen before.
func (s *dirStream) fillRow(ri int, cols []int32) {
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
	if !de.cellKeys {
		// Node-vector tuples would not pack into a key (that is what turned
		// the memo off), so no key-based reuse: evaluate each cell directly.
		for _, ci := range cols {
			for i := 0; i < k; i++ {
				de.vids[i] = s.rowSl[i][d.colPat[i][ci]]
			}
			out[ci] = de.compute()
		}
		return
	}
	cells := &de.be.memo.cells
	prevKey := ^uint64(0) // impossible: real keys stay below 2^63
	var prevF frac
	for _, ci := range cols {
		key := uint64(k)
		for i := 0; i < k; i++ {
			vid := s.rowSl[i][d.colPat[i][ci]]
			de.vids[i] = vid
			key = key<<cells.width | uint64(vid)
		}
		if key != prevKey {
			prevKey = key
			f, ok := cells.get(key)
			if !ok {
				f = de.compute()
				cells.put(key, f)
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
	cols := make([]int32, len(out))
	for ci := range cols {
		cols[ci] = int32(ci)
	}
	be.fwd.fillRow(ri, cols)
	be.bwd.fillRow(ri, cols)
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

// FracMember is one matrix a leader's fraction rows fill: its calc and
// whether its fraction structure is the leader's transposed (Calc's
// FracKey(false) equals the leader's FracKey(true)) rather than the leader's
// own (equal FracKey(false)).
type FracMember struct {
	Calc       *EdgeCalc
	Transposed bool
}

// FillRow computes the fractions of the leader's row ri at the leader
// columns cols once — be's calc is the leader — and writes
// m.RedistributeDetail of each member's cells that they determine: cells
// (ri, c) of a direct member, and cells (c, ri) of a transposed one, whose
// forward fractions are the leader's backward ones and vice versa, for every
// c in cols. Every member is written in the leader's orientation: member k's
// value at leader column cols[j] goes to dst[k*stride+at[j]], and no other
// element of dst is written. Each member's cells take its own volumes and
// element bytes, so every value is bit-identical to m.RedistributeDetail of
// that member's EdgePlan.Measure on the same interfaces, whichever cells are
// filled and in whatever order.
func (be *BlockEval) FillRow(m *Model, ri int, cols, at []int32, members []FracMember, dst []float64, stride int) {
	be.fwd.fillRow(ri, cols)
	be.bwd.fillRow(ri, cols)
	fRow, bRow := be.fwd.row, be.bwd.row
	for k, mb := range members {
		c := mb.Calc
		eb := c.p.eb
		out := dst[k*stride:][:stride]
		if !mb.Transposed {
			fVol := c.fwdVol
			bv := c.bwdVol[ri]
			for j, ci := range cols {
				f, b := fRow[ci], bRow[ci]
				fv := fVol[ci]
				out[at[j]] = m.RedistributeDetail(Traffic{
					FwdIntra: fv * f.fi * eb, FwdInter: fv * f.fe * eb,
					BwdIntra: bv * b.fi * eb, BwdInter: bv * b.fe * eb,
				})
			}
			continue
		}
		// The member's cell (r, ri) for every leader column r.
		fv := c.fwdVol[ri]
		bVol := c.bwdVol
		for j, r := range cols {
			f, b := bRow[r], fRow[r]
			bv := bVol[r]
			out[at[j]] = m.RedistributeDetail(Traffic{
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
	width uint // bits per id in the tuple keys (fracMemo)
}

type cellSlot struct {
	key    uint64
	fi, fe float64
}

// widen readies the table for tuple keys of need-bit ids: a table with
// narrower ids, or no slots yet, restarts empty at two slots with need-bit
// ids. A table with ids at least that wide keeps its entries, since every
// id below 2^need packs the same at its width.
func (t *cellTab) widen(need uint) {
	if t.slots == nil || t.width < need {
		t.use(make([]cellSlot, 2))
		t.width = need
	}
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
