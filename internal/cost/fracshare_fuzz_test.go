package cost

import (
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

// FuzzEdgeFracSharing pins the fraction-sharing contract core's edge phase
// rests on. For a random pooled edge, its mirror and a twin with other
// volumes, all on one registry: the twin's direct key equals the edge's,
// the mirror's direct key equals the edge's transposed key (and the other
// way round), and one group fill led by the edge — twin direct, mirror
// transposed — gives all three matrices bit-identical to
// RedistributeDetail of direct Measure.
func FuzzEdgeFracSharing(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(7), uint8(1))
	f.Add(int64(42), uint8(2))
	f.Add(int64(-3), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		devices := 4 << (shape % 3)     // 4, 8 or 16
		perNode := 2 << (shape / 3 % 2) // 2 or 4
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
		if cp == nil || cq == nil || ct == nil {
			t.Fatal("NewCalc fell back unexpectedly")
		}
		if cq.FracKey(false) != cp.FracKey(true) || cp.FracKey(false) != cq.FracKey(true) {
			t.Fatal("the mirror's fraction key is not the edge's transposed key")
		}
		if ct.FracKey(false) != cp.FracKey(false) {
			t.Fatal("a twin with other volumes has another fraction key")
		}

		vp := make([]float64, len(src)*len(dst))
		vq := make([]float64, len(vp))
		vt := make([]float64, len(vp))
		members := []FracMember{{Calc: cp, Vals: vp}, {Calc: cq, Vals: vq, Transposed: true}, {Calc: ct, Vals: vt}}
		be := cp.Block()
		for ri := range src {
			be.FillRow(m, ri, members)
		}
		be.Release()
		for ri, s := range src {
			for ci, d := range dst {
				if got, want := vp[ri*len(dst)+ci], m.RedistributeDetail(p.Measure(s, d)); got != want {
					t.Fatalf("edge cell (%d,%d): got %v want %v", ri, ci, got, want)
				}
				if got, want := vt[ri*len(dst)+ci], m.RedistributeDetail(twin.Measure(s, d)); got != want {
					t.Fatalf("twin cell (%d,%d): got %v want %v", ri, ci, got, want)
				}
			}
		}
		for ri, s := range qSrc {
			for ci, d := range qDst {
				if got, want := vq[ri*len(qDst)+ci], m.RedistributeDetail(q.Measure(s, d)); got != want {
					t.Fatalf("mirror cell (%d,%d): got %v want %v", ri, ci, got, want)
				}
			}
		}
	})
}
