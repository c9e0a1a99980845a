package cost

import (
	"math/rand"
	"testing"

	"repro/internal/device"
)

// pooledIfaces builds interfaces the way real candidate spaces look: each
// axis has a small pool of distinct per-axis layouts (partition choices), and
// every interface combines one draw per axis. The full interfaces are mostly
// distinct — like grouped-matrix representatives — but their projections onto
// any axis PAIR collapse to a handful of patterns, which is where the
// streaming evaluator's per-row cell reuse comes from (measured 4.1×/1.8× on
// the table2 sweep, DESIGN.md §5.3).
func pooledIfaces(rng *rand.Rand, n, devices, numAxes, poolPerAxis int) []*Iface {
	pool := make([][]*Iface, numAxes)
	for ax := range pool {
		pool[ax] = randIfaces(rng, poolPerAxis, devices, numAxes)
	}
	out := make([]*Iface, n)
	for i := range out {
		ifc := &Iface{
			NumAxes: numAxes,
			Fwd:     make([]float64, devices*numAxes),
			Bwd:     make([]float64, devices*numAxes),
			Width:   make([]float64, numAxes),
		}
		for ax := 0; ax < numAxes; ax++ {
			src := pool[ax][rng.Intn(poolPerAxis)]
			ifc.Width[ax] = src.Width[ax]
			for dev := 0; dev < devices; dev++ {
				ifc.Fwd[dev*numAxes+ax] = src.Fwd[dev*numAxes+ax]
				ifc.Bwd[dev*numAxes+ax] = src.Bwd[dev*numAxes+ax]
			}
		}
		out[i] = ifc
	}
	return out
}

// benchPlan builds a realistic edge shape: 16 devices, three mapped axis
// pairs per direction (as every edge of the paper models has three or four)
// plus an unmapped one, 256×1024 representative interfaces with pooled
// per-axis layouts — the size of a large grouped matrix from the 32-device
// table2 sweep (~10³ column groups), which is what the per-band memo tables
// are amortized over in production.
func benchPlan() (*EdgePlan, []*Iface, []*Iface) {
	rng := rand.New(rand.NewSource(11))
	p := &EdgePlan{
		devices: 16,
		perNode: 4,
		eb:      2,
		dstFull: 1 << 20,
		srcFull: 1 << 18,
		fwdDst:  []int{0, 1, 2, 3},
		fwdSrc:  []int{0, 2, -1, 1},
		bwdSrc:  []int{0, 1, 2},
		bwdDst:  []int{0, 3, 1},
	}
	srcReps := pooledIfaces(rng, 256, p.devices, 3, 8)
	dstReps := pooledIfaces(rng, 1024, p.devices, 4, 6)
	return p, srcReps, dstReps
}

// BenchmarkEdgeCellBlock measures the production fill of core's edge phase
// on a fraction group: one BlockEval of the leader fills every row once and
// writes both the leader's matrix and its mirror's (a transposed member, as
// softmax→av is of qkt→softmax) through FillRow.
func BenchmarkEdgeCellBlock(b *testing.B) {
	p, srcReps, dstReps := benchPlan()
	q, qSrc, qDst := mirrorEdge(p, srcReps, dstReps)
	ot := NewOverlapTables(p.devices, p.perNode)
	calc, mirror := newCalcOver(p, ot, srcReps, dstReps), newCalcOver(q, ot, qSrc, qDst)
	if calc == nil || mirror == nil {
		b.Fatal("NewCalc fell back")
	}
	m := NewModel(device.MustCluster(p.devices, p.perNode, device.V100Profile()))
	cells := len(srcReps) * len(dstReps)
	members := []FracMember{
		{Calc: calc, Vals: make([]float64, cells)},
		{Calc: mirror, Vals: make([]float64, cells), Transposed: true},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		be := calc.Block()
		for ri := range srcReps {
			be.FillRow(m, ri, members)
		}
		be.Release()
	}
	b.ReportMetric(float64(cells), "cells/op")
}
