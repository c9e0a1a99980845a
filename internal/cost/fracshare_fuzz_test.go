package cost

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/device"
)

// mirrorEdge returns the edge that runs p backwards — its producer is p's
// consumer and its consumer p's producer, its forward pairing is p's
// backward one and vice versa — with interfaces whose forward and backward
// starts are the originals' swapped. Its fraction structure is therefore p's
// transposed: the shape of softmax→av against qkt→softmax in a Table-2
// block.
func mirrorEdge(p *EdgePlan, src, dst []*Iface) (*EdgePlan, []*Iface, []*Iface) {
	q := &EdgePlan{devices: p.devices, perNode: p.perNode, eb: p.eb,
		dstFull: p.srcFull, srcFull: p.dstFull,
		fwdDst: p.bwdSrc, fwdSrc: p.bwdDst,
		bwdSrc: p.fwdDst, bwdDst: p.fwdSrc}
	swap := func(ifs []*Iface) []*Iface {
		out := make([]*Iface, len(ifs))
		for i, ifc := range ifs {
			out[i] = &Iface{NumAxes: ifc.NumAxes, Fwd: ifc.Bwd, Bwd: ifc.Fwd, Width: ifc.Width}
		}
		return out
	}
	return q, swap(dst), swap(src)
}

// selfMirrorEdge draws an edge that is its own mirror (mirrorEdge returns
// it unchanged): both sides have the same axes and volume, the backward
// pairing is the forward one reversed, and each consumer interface is a
// producer interface with its forward and backward starts swapped. Its
// fraction structure is its own transpose — the shape of anchor→norm1 and
// the K-side qkv→qkt in a Table-2 block.
func selfMirrorEdge(rng *rand.Rand, devices, perNode int, pool []axisLayout) (*EdgePlan, []*Iface, []*Iface) {
	axes := 2 + rng.Intn(3)
	p := &EdgePlan{devices: devices, perNode: perNode, eb: 2, dstFull: 1 << 19, srcFull: 1 << 19}
	perm := rng.Perm(axes)
	for i, dax := range rng.Perm(axes)[:1+rng.Intn(axes)] {
		sa := -1
		if rng.Intn(4) > 0 {
			sa = perm[i]
		}
		p.fwdDst = append(p.fwdDst, dax)
		p.fwdSrc = append(p.fwdSrc, sa)
	}
	p.bwdSrc, p.bwdDst = p.fwdDst, p.fwdSrc
	src := ifacesFromPool(rng, 1+rng.Intn(10), axes, pool)
	_, _, dst := mirrorEdge(p, src, src)
	return p, src, dst
}

// fillGroup fills the matrices of one fraction group led by members[0] in
// two passes, the even leader columns and then the odd ones, and reports the
// first cell of each that differs from RedistributeDetail of direct
// Measure. FillRow writes every member in the leader's orientation, one
// buffer per leader row; the buffers put leader column c at slot nc−1−c, so
// the slots FillRow is given are not the columns. Between the passes every
// slot of an odd leader column — a transposed member's odd rows — must still
// hold its NaN sentinel: FillRow writes the slots of the columns it is given
// and no other element.
func fillGroup(t *testing.T, m *Model, label string, members []FracMember, jobs []edgeJob) {
	t.Helper()
	nc := len(jobs[0].dst)
	var passes, slots [2][]int32
	for c := 0; c < nc; c++ {
		passes[c%2] = append(passes[c%2], int32(c))
		slots[c%2] = append(slots[c%2], int32(nc-1-c))
	}
	rows := make([][]float64, len(jobs[0].src))
	for ri := range rows {
		rows[ri] = make([]float64, len(members)*nc)
		for c := range rows[ri] {
			rows[ri][c] = math.NaN()
		}
	}
	for pass, cols := range passes {
		be := members[0].Calc.Block()
		for ri, row := range rows {
			be.FillRow(m, ri, cols, slots[pass], members, row, nc)
		}
		be.Release()
		for k, j := range jobs {
			for c, want := range j.want {
				i, jj := c/len(j.dst), c%len(j.dst)
				lr, lc := i, jj // the cell's leader row and column
				if members[k].Transposed {
					lr, lc = jj, i
				}
				got := rows[lr][k*nc+nc-1-lc]
				switch {
				case lc%2 > pass:
					if !math.IsNaN(got) {
						t.Fatalf("%s, matrix %d cell (%d,%d): written by the even-column pass", label, k, i, jj)
					}
				case got != want:
					t.Fatalf("%s, matrix %d cell (%d,%d) after pass %d: got %v want %v", label, k, i, jj, pass, got, want)
				}
			}
		}
	}
}

// FuzzEdgeFracSharing pins the fraction-sharing contract core's edge phase
// rests on: fraction keys name fraction structures, and the search-wide
// memo's entries serve every edge and direction that meets their tuples.
// Machines have 4, 8 or 16 devices, with 2, 4 or 8 per node or all on one
// node. All on one registry:
//   - for a random pooled edge, its mirror and a twin with other volumes,
//     the twin's direct key equals the edge's, the mirror's direct key
//     equals the edge's transposed key (and the other way round), and one
//     group fill led by the edge — twin direct, mirror transposed — gives
//     all three matrices bit-identical to RedistributeDetail of direct
//     Measure;
//   - a second, unrelated random edge built after that first fill grows
//     the registry, often past the width of the memo's keys; it and the
//     first group then fill in the fuzzed order, both still bit-identical;
//   - an edge that is its own mirror, filled on its own, so its backward
//     probes meet the tuples its forward pass inserted: bit-identical too.
func FuzzEdgeFracSharing(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(7), uint8(1))
	f.Add(int64(42), uint8(2))
	f.Add(int64(-3), uint8(5))
	f.Add(int64(9), uint8(9))
	f.Add(int64(13), uint8(14))
	f.Add(int64(21), uint8(20))
	f.Add(int64(33), uint8(16))
	f.Add(int64(-8), uint8(23))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		devices := 4 << (shape % 3) // 4, 8 or 16
		// 2 or 4 per node, then 8 per node or one node of every device.
		perNode := min([]int{2, 4, 8, devices}[shape/3%2+shape/12%2*2], devices)
		secondFirst := shape/6%2 == 1
		rng := rand.New(rand.NewSource(seed))
		m := NewModel(device.MustCluster(devices, perNode, device.V100Profile()))
		pool := layoutPool(rng, 2+rng.Intn(5), devices)
		p, srcAxes, dstAxes := randEdgePlan(rng, devices, perNode)
		src := ifacesFromPool(rng, 1+rng.Intn(10), srcAxes, pool)
		dst := ifacesFromPool(rng, 1+rng.Intn(10), dstAxes, pool)
		q, qSrc, qDst := mirrorEdge(p, src, dst)
		twin := *p
		twin.eb, twin.dstFull, twin.srcFull = 4, 3<<10, 5<<12

		ot := NewOverlapTables(devices, perNode)
		cp, cq, ct := newCalcOver(p, ot, src, dst), newCalcOver(q, ot, qSrc, qDst), newCalcOver(&twin, ot, src, dst)
		if cq.FracKey(false) != cp.FracKey(true) || cp.FracKey(false) != cq.FracKey(true) {
			t.Fatal("the mirror's fraction key is not the edge's transposed key")
		}
		if ct.FracKey(false) != cp.FracKey(false) {
			t.Fatal("a twin with other volumes has another fraction key")
		}
		group := []FracMember{{Calc: cp}, {Calc: cq, Transposed: true}, {Calc: ct}}
		groupJobs := []edgeJob{newEdgeJob(m, p, src, dst), newEdgeJob(m, q, qSrc, qDst), newEdgeJob(m, &twin, src, dst)}
		fillGroup(t, m, "first group", group, groupJobs)

		// A second edge over fresh layouts, built after the first fill.
		r, rSrcAxes, rDstAxes := randEdgePlan(rng, devices, perNode)
		rPool := layoutPool(rng, 2+rng.Intn(8), devices)
		rJob := newEdgeJob(m, r, ifacesFromPool(rng, 1+rng.Intn(12), rSrcAxes, rPool), ifacesFromPool(rng, 1+rng.Intn(12), rDstAxes, rPool))
		cr := newCalcOver(r, ot, rJob.src, rJob.dst)
		second := []FracMember{{Calc: cr}}
		if secondFirst {
			fillGroup(t, m, "second edge", second, []edgeJob{rJob})
		}
		fillGroup(t, m, "first group again", group, groupJobs)
		if !secondFirst {
			fillGroup(t, m, "second edge", second, []edgeJob{rJob})
		}

		// An edge that is its own mirror.
		s, sSrc, sDst := selfMirrorEdge(rng, devices, perNode, pool)
		cs := newCalcOver(s, ot, sSrc, sDst)
		if cs.FracKey(false) != cs.FracKey(true) {
			t.Fatal("a self-mirrored edge's fraction key is not its own transposed key")
		}
		fillGroup(t, m, "self-mirrored edge", []FracMember{{Calc: cs}},
			[]edgeJob{newEdgeJob(m, s, sSrc, sDst)})
	})
}
