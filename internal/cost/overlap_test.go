package cost

import (
	"math/rand"
	"reflect"
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
		j := edgeJob{p: p,
			src: ifacesFromPool(rng, 1+rng.Intn(12), srcAxes, pool),
			dst: ifacesFromPool(rng, 1+rng.Intn(12), dstAxes, pool)}
		for _, s := range j.src {
			for _, d := range j.dst {
				j.want = append(j.want, m.RedistributeDetail(p.Measure(s, d)))
			}
		}
		jobs[i] = j
	}
	return jobs
}

// check fills the job's matrix through a BlockEval of calc and reports the
// first cell that differs from Measure.
func (j *edgeJob) check(t *testing.T, m *Model, label string, calc *EdgeCalc) {
	t.Helper()
	if calc == nil {
		t.Errorf("%s: NewCalc fell back unexpectedly", label)
		return
	}
	be := calc.Block()
	vals := make([]float64, len(j.src)*len(j.dst))
	for ri := range j.src {
		be.FillRow(m, ri, []FracMember{{Calc: calc, Vals: vals}})
	}
	be.Release()
	for k, got := range vals {
		if want := j.want[k]; got != want {
			t.Errorf("%s cell (%d,%d): got %v want %v", label, k/len(j.dst), k%len(j.dst), got, want)
			return
		}
	}
}

// TestOverlapTablesShared pins the registry's contract: one registry shared
// by many random edges of one cluster shape gives every edge the same local
// tables — pattern ids, node vectors, node blocks, key spaces — as a fresh
// registry of its own, so FillRow stays bit-identical to Measure.
// Released memos are recycled from edge to edge along the way.
func TestOverlapTablesShared(t *testing.T) {
	m := NewModel(device.MustCluster(16, 4, device.V100Profile()))
	rng := rand.New(rand.NewSource(23))
	jobs := randEdgeJobs(rng, m, 60, layoutPool(rng, 6, 16))
	shared := NewOverlapTables(16, 4)
	asked := 0
	for i := range jobs {
		j := &jobs[i]
		calc := newCalcOver(j.p, shared, j.src, j.dst)
		fresh := newCalcOver(j.p, NewOverlapTables(16, 4), j.src, j.dst)
		if calc == nil || fresh == nil {
			t.Fatalf("edge %d: NewCalc fell back unexpectedly", i)
		}
		if !reflect.DeepEqual(localTables(calc.fwd), localTables(fresh.fwd)) ||
			!reflect.DeepEqual(localTables(calc.bwd), localTables(fresh.bwd)) {
			t.Fatalf("edge %d: shared-registry tables differ from a fresh registry's", i)
		}
		j.check(t, m, "shared", calc)
		for _, d := range []*dirCalc{&calc.fwd, &calc.bwd} {
			for _, c := range d.cellVec {
				asked += len(c)
			}
		}
	}
	if got := len(shared.pairVec); got == 0 || got >= asked {
		t.Errorf("registry holds %d pattern-pair vectors for %d asked: nothing was shared", got, asked)
	}
}

// localTables drops d's registry pattern ids, which number the patterns of
// whichever registry built d, and keeps the tables local to the edge.
func localTables(d dirCalc) dirCalc {
	d.rowReg, d.colReg = nil, nil
	return d
}

// TestOverlapTablesConcurrent builds and evaluates calcs from several
// goroutines on one registry, as a search's concurrent edge builds do. Run
// under -race it also checks the registry's and memo pool's locking.
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

// TestReleasedMemoReused: a released memo's slot array serves the next
// evaluator that asks for the same size, emptied, and lookups through it
// stay exact; a memo too big for any start size is not kept.
func TestReleasedMemoReused(t *testing.T) {
	m := NewModel(device.MustCluster(8, 4, device.V100Profile()))
	rng := rand.New(rand.NewSource(31))
	j := randEdgeJobs(rng, m, 1, layoutPool(rng, 4, 8))[0]
	calc := newCalcOver(j.p, NewOverlapTables(8, 4), j.src, j.dst)
	be := calc.Block()
	first := &be.fwd.de.cells.slots[0]
	vals := make([]float64, len(j.src)*len(j.dst))
	for ri := range j.src {
		be.FillRow(m, ri, []FracMember{{Calc: calc, Vals: vals}})
	}
	be.Release()
	again := calc.Block()
	reused := false
	for _, tab := range []*cellTab{&again.fwd.de.cells, &again.fwd.de.combo, &again.bwd.de.cells, &again.bwd.de.combo} {
		reused = reused || &tab.slots[0] == first
		for _, s := range tab.slots {
			if s != (cellSlot{}) {
				t.Fatal("a reused memo was not emptied")
			}
		}
	}
	if !reused {
		t.Error("a same-sized memo was allocated afresh instead of reused")
	}
	again.Release()
	j.check(t, m, "reused", calc)

	// A memo grown past every start size is dropped, not kept for reuse.
	grown := calc.Block()
	grown.fwd.de.cells.initSize(4 * cellMemoCap)
	grown.Release()
	for _, f := range calc.t.free {
		if len(f) > max(cellMemoCap, comboMemoCap) {
			t.Fatalf("registry kept a %d-slot memo no start size can reuse", len(f))
		}
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
