package cost

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/device"
)

// axisLayout is one single-axis distribution: a width and every device's
// forward and backward interval starts.
type axisLayout struct {
	width    float64
	fwd, bwd []float64
}

// layoutPool draws k random single-axis layouts. Interfaces built from one
// pool repeat the same few distributions across every edge, the way one
// cluster's candidates do, so a shared registry meets the same pattern pairs
// again and again.
func layoutPool(rng *rand.Rand, k, devices int) []axisLayout {
	pool := make([]axisLayout, k)
	for i := range pool {
		slices := 1 << rng.Intn(4)
		w := 1 / float64(slices)
		l := axisLayout{width: w, fwd: make([]float64, devices), bwd: make([]float64, devices)}
		for dev := 0; dev < devices; dev++ {
			l.fwd[dev] = float64(rng.Intn(slices)) * w
			l.bwd[dev] = float64(rng.Intn(slices)) * w
		}
		pool[i] = l
	}
	return pool
}

// ifacesFromPool builds n interfaces whose every axis takes a pool layout.
func ifacesFromPool(rng *rand.Rand, n, numAxes int, pool []axisLayout) []*Iface {
	devices := len(pool[0].fwd)
	out := make([]*Iface, n)
	for i := range out {
		ifc := &Iface{
			NumAxes: numAxes,
			Fwd:     make([]float64, devices*numAxes),
			Bwd:     make([]float64, devices*numAxes),
			Width:   make([]float64, numAxes),
		}
		for ax := 0; ax < numAxes; ax++ {
			l := pool[rng.Intn(len(pool))]
			ifc.Width[ax] = l.width
			for dev := 0; dev < devices; dev++ {
				ifc.Fwd[dev*numAxes+ax] = l.fwd[dev]
				ifc.Bwd[dev*numAxes+ax] = l.bwd[dev]
			}
		}
		out[i] = ifc
	}
	return out
}

// randEdgePlan draws an edge with 2–4 axes per side: a random subset of the
// destination axes paired forward, a random subset of the source axes paired
// backward, each pairing mapped to a distinct opposite axis or unmapped (-1).
func randEdgePlan(rng *rand.Rand, devices, perNode int) (p *EdgePlan, srcAxes, dstAxes int) {
	srcAxes, dstAxes = 2+rng.Intn(3), 2+rng.Intn(3)
	p = &EdgePlan{devices: devices, perNode: perNode, eb: 2, dstFull: 1 << 20, srcFull: 1 << 18}
	srcPerm, dstPerm := rng.Perm(srcAxes), rng.Perm(dstAxes)
	for i, dax := range rng.Perm(dstAxes)[:1+rng.Intn(dstAxes)] {
		sa := -1
		if i < srcAxes && rng.Intn(4) > 0 {
			sa = srcPerm[i]
		}
		p.fwdDst = append(p.fwdDst, dax)
		p.fwdSrc = append(p.fwdSrc, sa)
	}
	for i, sa := range rng.Perm(srcAxes)[:1+rng.Intn(srcAxes)] {
		dax := -1
		if i < dstAxes && rng.Intn(4) > 0 {
			dax = dstPerm[i]
		}
		p.bwdSrc = append(p.bwdSrc, sa)
		p.bwdDst = append(p.bwdDst, dax)
	}
	return p, srcAxes, dstAxes
}

// edgeJob is one random edge with its interfaces and its expected cost
// matrix, row-major, from direct Measure calls.
type edgeJob struct {
	p        *EdgePlan
	src, dst []*Iface
	want     []float64
}

func randEdgeJobs(rng *rand.Rand, m *Model, n int, pool []axisLayout) []edgeJob {
	jobs := make([]edgeJob, n)
	for i := range jobs {
		p, srcAxes, dstAxes := randEdgePlan(rng, m.Cluster.NumDevices, m.Cluster.DevicesPerNode)
		jobs[i] = newEdgeJob(m, p,
			ifacesFromPool(rng, 1+rng.Intn(12), srcAxes, pool),
			ifacesFromPool(rng, 1+rng.Intn(12), dstAxes, pool))
	}
	return jobs
}

// newEdgeJob is the job of edge p over src and dst.
func newEdgeJob(m *Model, p *EdgePlan, src, dst []*Iface) edgeJob {
	j := edgeJob{p: p, src: src, dst: dst}
	for _, s := range src {
		for _, d := range dst {
			j.want = append(j.want, m.RedistributeDetail(p.Measure(s, d)))
		}
	}
	return j
}

// check fills the job's matrix through a BlockEval of calc and reports the
// first cell that differs from Measure.
func (j *edgeJob) check(t *testing.T, m *Model, label string, calc *EdgeCalc) {
	t.Helper()
	be := calc.Block()
	vals := make([]float64, len(j.src)*len(j.dst))
	cols := make([]int32, len(j.dst))
	for ci := range cols {
		cols[ci] = int32(ci)
	}
	for ri := range j.src {
		be.FillRow(m, ri, cols, cols, []FracMember{{Calc: calc}}, vals[ri*len(j.dst):], len(j.dst))
	}
	be.Release()
	for k, got := range vals {
		if want := j.want[k]; got != want {
			t.Errorf("%s cell (%d,%d): got %v want %v", label, k/len(j.dst), k%len(j.dst), got, want)
			return
		}
	}
}

// TestOverlapTablesShared pins the registry's contract: random edges of one
// cluster shape, with twins of other volumes and mirrors among them, fill
// bit-identically to Measure on one shared registry, and their fraction keys
// relate the same way on a registry that met them in the reverse order. Key
// equality, which groups matrices in core, is a property of the edges, not
// of the order the registry numbered their patterns in.
func TestOverlapTablesShared(t *testing.T) {
	m := NewModel(device.MustCluster(16, 4, device.V100Profile()))
	rng := rand.New(rand.NewSource(23))
	var jobs []edgeJob
	for _, j := range randEdgeJobs(rng, m, 40, layoutPool(rng, 6, 16)) {
		jobs = append(jobs, j)
		if len(jobs)%4 == 1 {
			twin := *j.p
			twin.eb, twin.dstFull = 4, 3<<10
			q, qSrc, qDst := mirrorEdge(j.p, j.src, j.dst)
			jobs = append(jobs, newEdgeJob(m, &twin, j.src, j.dst), newEdgeJob(m, q, qSrc, qDst))
		}
	}
	inOrder, reversed := NewOverlapTables(16, 4), NewOverlapTables(16, 4)
	calcs := make([][2]*EdgeCalc, len(jobs))
	for i := range jobs {
		calcs[i][0] = newCalcOver(jobs[i].p, inOrder, jobs[i].src, jobs[i].dst)
	}
	for i := len(jobs) - 1; i >= 0; i-- {
		calcs[i][1] = newCalcOver(jobs[i].p, reversed, jobs[i].src, jobs[i].dst)
	}
	asked := 0
	for i := range jobs {
		jobs[i].check(t, m, "in-order registry", calcs[i][0])
		jobs[i].check(t, m, "reversed registry", calcs[i][1])
		for _, d := range []*dirCalc{&calcs[i][0].fwd, &calcs[i][0].bwd} {
			for _, c := range d.cellVec {
				asked += len(c)
			}
		}
	}
	if t.Failed() {
		return
	}
	shared := 0
	for i := range calcs {
		for j := range calcs {
			for _, swapped := range []bool{false, true} {
				a := calcs[i][0].FracKey(false) == calcs[j][0].FracKey(swapped)
				b := calcs[i][1].FracKey(false) == calcs[j][1].FracKey(swapped)
				if a != b {
					t.Fatalf("edges %d and %d (swapped %v): keys equal %v on one registry, %v on the other", i, j, swapped, a, b)
				}
				if a && i != j {
					shared++
				}
			}
		}
	}
	if shared == 0 {
		t.Error("no two edges share a fraction key: the twins and mirrors were not recognized")
	}
	if got := len(inOrder.pairVec); got == 0 || got >= asked {
		t.Errorf("registry holds %d pattern-pair vectors for %d asked: nothing was shared", got, asked)
	}
}

// TestOverlapTablesConcurrent builds and fills calcs from several goroutines
// on one registry, each build interleaved with the other goroutines' fills,
// so the registry grows while bands hold its memos and later bands get
// memos keyed at an older width. Run under -race (CI runs it with -short)
// it also checks the locking of the registry and its memo list.
func TestOverlapTablesConcurrent(t *testing.T) {
	m := NewModel(device.MustCluster(16, 4, device.V100Profile()))
	rng := rand.New(rand.NewSource(29))
	jobs := randEdgeJobs(rng, m, 24, layoutPool(rng, 5, 16))
	shared := NewOverlapTables(16, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range jobs {
				j := &jobs[(k+6*g)%len(jobs)]
				j.check(t, m, "concurrent", newCalcOver(j.p, shared, j.src, j.dst))
			}
		}(g)
	}
	wg.Wait()
}

// TestRegistryGrowthBetweenFills: a memo filled for one edge stays exact
// after the registry grows. Edge A fills first; edges B, with many new
// patterns, are built on the same registry afterwards, which widens the
// registry's ids past the memo's key width; then B and A fill again through
// the returned memo. Every cell equals RedistributeDetail of Measure.
func TestRegistryGrowthBetweenFills(t *testing.T) {
	m := NewModel(device.MustCluster(16, 4, device.V100Profile()))
	rng := rand.New(rand.NewSource(31))
	a := randEdgeJobs(rng, m, 1, layoutPool(rng, 2, 16))[0]
	ot := NewOverlapTables(16, 4)
	ca := newCalcOver(a.p, ot, a.src, a.dst)
	a.check(t, m, "A", ca)
	narrow := ot.memos[0].cells.width
	for k, b := range randEdgeJobs(rng, m, 6, layoutPool(rng, 12, 16)) {
		cb := newCalcOver(b.p, ot, b.src, b.dst)
		b.check(t, m, fmt.Sprintf("B%d", k), cb)
		a.check(t, m, fmt.Sprintf("A after B%d", k), ca)
	}
	if len(ot.memos) != 1 {
		t.Fatalf("one band at a time left %d memos, want 1", len(ot.memos))
	}
	if wide := ot.memos[0].cells.width; wide <= narrow {
		t.Fatalf("cell keys stayed %d bits wide (A's were %d): the registry never outgrew the memo", wide, narrow)
	}
}

// TestOverlappingEdgeReusesFractions: an edge whose direction tuples all
// occur in an earlier edge's matrix computes no fraction of its own. B is
// A's mirror over a reversed subset of A's interfaces, so B's forward
// tuples are A's backward ones and the other way round, and B's fraction
// key matches no key of A's: in core the two would fill as separate groups.
// Both are built before either fills, as core's edge phase does.
func TestOverlappingEdgeReusesFractions(t *testing.T) {
	m := NewModel(device.MustCluster(16, 4, device.V100Profile()))
	rng := rand.New(rand.NewSource(41))
	p := &EdgePlan{
		devices: 16, perNode: 4, eb: 2, dstFull: 1 << 20, srcFull: 1 << 18,
		fwdDst: []int{0, 1, 2, 3}, fwdSrc: []int{0, 2, -1, 1},
		bwdSrc: []int{0, 1, 2}, bwdDst: []int{0, 3, 1},
	}
	pool := layoutPool(rng, 5, 16)
	a := newEdgeJob(m, p, ifacesFromPool(rng, 12, 3, pool), ifacesFromPool(rng, 14, 4, pool))
	q, qSrc, qDst := mirrorEdge(p, a.src, a.dst)
	slices.Reverse(qSrc)
	slices.Reverse(qDst)
	b := newEdgeJob(m, q, qSrc[:9], qDst[:5])
	ot := NewOverlapTables(16, 4)
	ca, cb := newCalcOver(a.p, ot, a.src, a.dst), newCalcOver(b.p, ot, b.src, b.dst)
	if k := cb.FracKey(false); k == ca.FracKey(false) || k == ca.FracKey(true) {
		t.Fatal("B shares A's fraction structure; the test needs B to fill on its own")
	}
	a.check(t, m, "A", ca)
	memo := ot.memos[0]
	cells, combos := memo.cells.n, memo.combo.n
	if cells == 0 || combos == 0 {
		t.Fatalf("A's fill left %d cell and %d combo entries", cells, combos)
	}
	b.check(t, m, "B", cb)
	if memo.cells.n != cells || memo.combo.n != combos {
		t.Errorf("B computed %d cell and %d combo fractions that A's fill already held", memo.cells.n-cells, memo.combo.n-combos)
	}
}

// TestNewCalcShapeMismatchPanics: a registry serves one cluster shape only.
func TestNewCalcShapeMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	p, srcAxes, dstAxes := randEdgePlan(rng, 16, 4)
	defer func() {
		if recover() == nil {
			t.Error("NewCalc accepted a registry of another cluster shape")
		}
	}()
	newCalcOver(p, NewOverlapTables(16, 8), randIfaces(rng, 2, 16, srcAxes), randIfaces(rng, 2, 16, dstAxes))
}
