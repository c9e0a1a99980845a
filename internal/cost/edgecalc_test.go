package cost

import (
	"math/rand"
	"testing"
)

// randIfaces builds pseudo-random but structurally valid interfaces: per
// axis, a power-of-two slice count and per-device aligned interval starts,
// the way real candidate interfaces look.
func randIfaces(rng *rand.Rand, n, devices, numAxes int) []*Iface {
	out := make([]*Iface, n)
	for i := range out {
		ifc := &Iface{
			NumAxes: numAxes,
			Fwd:     make([]float64, devices*numAxes),
			Bwd:     make([]float64, devices*numAxes),
			Width:   make([]float64, numAxes),
		}
		for ax := 0; ax < numAxes; ax++ {
			slices := 1 << rng.Intn(4)
			w := 1 / float64(slices)
			ifc.Width[ax] = w
			for dev := 0; dev < devices; dev++ {
				ifc.Fwd[dev*numAxes+ax] = float64(rng.Intn(slices)) * w
				ifc.Bwd[dev*numAxes+ax] = float64(rng.Intn(slices)) * w
			}
		}
		out[i] = ifc
	}
	return out
}

// newCalcOver builds p's calc over src and dst, every interface its own
// representative.
func newCalcOver(p *EdgePlan, t *OverlapTables, src, dst []*Iface) *EdgeCalc {
	return p.NewCalc(t, NewPatterns(src), allReps(len(src)), NewPatterns(dst), allReps(len(dst)))
}

// allReps returns the representative list 0, 1, …, n-1.
func allReps(n int) []int32 {
	reps := make([]int32, n)
	for i := range reps {
		reps[i] = int32(i)
	}
	return reps
}

// TestPatternsIDs pins Patterns' numbering on both id widths: two
// interfaces share a pattern id on an axis and pass exactly when their width
// and every device's start there are bit-equal, ids count up from zero in
// first-seen order, and a slot of more than 256 patterns switches the whole
// index from byte ids to int32 ids.
func TestPatternsIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		n    int
		wide bool
	}{{40, false}, {700, true}} {
		ifs := randIfaces(rng, tc.n, 16, 3)
		p := NewPatterns(ifs)
		if wide := p.ids8 == nil; wide != tc.wide {
			t.Fatalf("%d interfaces: wide ids = %v, want %v", tc.n, wide, tc.wide)
		}
		for ax := 0; ax < 3; ax++ {
			for _, fwd := range []bool{true, false} {
				byKey := map[string]int32{}
				for i, ifc := range ifs {
					arr := ifc.Fwd
					if !fwd {
						arr = ifc.Bwd
					}
					pat := axisPattern{width: ifc.Width[ax], starts: make([]float64, 16)}
					for dev := range pat.starts {
						pat.starts[dev] = arr[dev*3+ax]
					}
					key := string(pat.appendKey(nil))
					want, seen := byKey[key]
					if !seen {
						want = int32(len(byKey))
						byKey[key] = want
					}
					if got := p.ID(i, ax, fwd); got != want {
						t.Fatalf("%d interfaces, axis %d fwd %v: interface %d has id %d, want %d", tc.n, ax, fwd, i, got, want)
					}
				}
			}
		}
	}
}

// TestEdgeCalcMatchesMeasure pins the table-driven evaluator (one
// BlockEval's MeasureRow) to the reference Measure, every Traffic field
// compared, on randomized interface sets, including unmapped (-1) axis
// pairings.
func TestEdgeCalcMatchesMeasure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		devices, perNode := 16, 4
		srcAxes, dstAxes := 3, 4
		p := &EdgePlan{
			devices: devices,
			perNode: perNode,
			eb:      2,
			dstFull: 1 << 20,
			srcFull: 1 << 18,
			fwdDst:  []int{0, 1, 2, 3},
			fwdSrc:  []int{0, 2, -1, 1},
			bwdSrc:  []int{0, 1, 2},
			bwdDst:  []int{0, 3, -1},
		}
		srcReps := randIfaces(rng, 25, devices, srcAxes)
		dstReps := randIfaces(rng, 25, devices, dstAxes)
		calc := newCalcOver(p, NewOverlapTables(p.devices, p.perNode), srcReps, dstReps)
		be := calc.Block()
		out := make([]Traffic, len(dstReps))
		for ri, s := range srcReps {
			be.MeasureRow(ri, out)
			for ci, d := range dstReps {
				if want := p.Measure(s, d); out[ci] != want {
					t.Fatalf("trial %d cell (%d,%d): got %+v want %+v", trial, ri, ci, out[ci], want)
				}
			}
		}
	}
}

// TestEdgeCalcNoMappedAxes covers the degenerate all-replicated pairing:
// every coverage is 1 and no traffic flows.
func TestEdgeCalcNoMappedAxes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := &EdgePlan{
		devices: 8, perNode: 4, eb: 2, dstFull: 1024, srcFull: 1024,
		fwdDst: []int{0}, fwdSrc: []int{-1},
		bwdSrc: []int{0}, bwdDst: []int{-1},
	}
	srcReps := randIfaces(rng, 4, 8, 2)
	dstReps := randIfaces(rng, 4, 8, 2)
	calc := newCalcOver(p, NewOverlapTables(p.devices, p.perNode), srcReps, dstReps)
	be := calc.Block()
	out := make([]Traffic, len(dstReps))
	for ri, s := range srcReps {
		be.MeasureRow(ri, out)
		for ci, d := range dstReps {
			if want := p.Measure(s, d); out[ci] != want {
				t.Fatalf("cell (%d,%d): got %+v want %+v", ri, ci, out[ci], want)
			}
		}
	}
}

// TestBlockEvalMatchesMeasure pins the production streaming evaluator
// (BlockEval.MeasureRow, the Traffic form of what core's edge builds call)
// to the reference Measure bit-for-bit. It covers both direction shapes of
// the plan (three mapped pairs forward, two backward), 1×N and N×1
// matrices, and pooled interfaces whose cells repeat within a row.
func TestBlockEvalMatchesMeasure(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := &EdgePlan{
		devices: 16,
		perNode: 4,
		eb:      2,
		dstFull: 1 << 20,
		srcFull: 1 << 18,
		fwdDst:  []int{0, 1, 2, 3},
		fwdSrc:  []int{0, 2, -1, 1},
		bwdSrc:  []int{0, 1, 2},
		bwdDst:  []int{0, 3, -1},
	}
	shapes := []struct {
		name       string
		rows, cols int
		pooled     bool
	}{
		{"1xN", 1, 40, false},
		{"Nx1", 40, 1, false},
		{"1x1", 1, 1, false},
		{"random", 20, 30, false},
		{"pooled", 30, 60, true},
	}
	for _, sh := range shapes {
		for trial := 0; trial < 5; trial++ {
			var srcReps, dstReps []*Iface
			if sh.pooled {
				srcReps = pooledIfaces(rng, sh.rows, p.devices, 3, 4)
				dstReps = pooledIfaces(rng, sh.cols, p.devices, 4, 3)
			} else {
				srcReps = randIfaces(rng, sh.rows, p.devices, 3)
				dstReps = randIfaces(rng, sh.cols, p.devices, 4)
			}
			calc := newCalcOver(p, NewOverlapTables(p.devices, p.perNode), srcReps, dstReps)
			be := calc.Block()
			out := make([]Traffic, len(dstReps))
			for ri, s := range srcReps {
				be.MeasureRow(ri, out)
				for ci, d := range dstReps {
					if want := p.Measure(s, d); out[ci] != want {
						t.Fatalf("%s trial %d cell (%d,%d): got %+v want %+v", sh.name, trial, ri, ci, out[ci], want)
					}
				}
			}
		}
	}
}

// TestMemoGrowsFromMinimum: a registry's first memo starts at the smallest
// table, two slots per level, and a fill that grows both levels several
// times over stays bit-identical to Measure.
func TestMemoGrowsFromMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := &EdgePlan{
		devices: 16, perNode: 4, eb: 2, dstFull: 1 << 20, srcFull: 1 << 18,
		fwdDst: []int{0, 1, 2}, fwdSrc: []int{0, 2, 1},
		bwdSrc: []int{0, 1, 2}, bwdDst: []int{1, 0, 2},
	}
	src, dst := randIfaces(rng, 40, p.devices, 3), randIfaces(rng, 50, p.devices, 3)
	calc := newCalcOver(p, NewOverlapTables(p.devices, p.perNode), src, dst)
	be := calc.Block()
	if got := [2]int{len(be.memo.cells.slots), len(be.memo.combo.slots)}; got != [2]int{2, 2} {
		t.Fatalf("a new memo starts at %v slots (cells, combo), want [2 2]", got)
	}
	out := make([]Traffic, len(dst))
	for ri, s := range src {
		be.MeasureRow(ri, out)
		for ci, d := range dst {
			if want := p.Measure(s, d); out[ci] != want {
				t.Fatalf("cell (%d,%d): got %+v want %+v", ri, ci, out[ci], want)
			}
		}
	}
	for _, tab := range []*cellTab{&be.memo.cells, &be.memo.combo} {
		if len(tab.slots) < 128 {
			t.Errorf("a memo level holds %d entries in %d slots: it never grew past its first rounds", tab.n, len(tab.slots))
		}
	}
}

// TestWideKeysComputeDirectly: a direction whose tuples would not pack into
// the memo's keys skips that memo level and computes every cell directly,
// still bit-identical to Measure, leaving the memo untouched. The registry's
// memo is handed ids 30 bits wide, so three pairs need 92 key bits.
func TestWideKeysComputeDirectly(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := &EdgePlan{
		devices: 16, perNode: 4, eb: 2, dstFull: 1 << 20, srcFull: 1 << 18,
		fwdDst: []int{0, 1, 2}, fwdSrc: []int{0, 2, 1},
		bwdSrc: []int{0, 1, 2}, bwdDst: []int{1, 0, 2},
	}
	src, dst := randIfaces(rng, 6, p.devices, 3), randIfaces(rng, 7, p.devices, 3)
	ot := NewOverlapTables(p.devices, p.perNode)
	calc := newCalcOver(p, ot, src, dst)
	wide := &fracMemo{}
	wide.cells.widen(30)
	wide.combo.widen(30)
	ot.memos = append(ot.memos, wide)
	be := calc.Block()
	if be.memo != wide || be.fwd.de.cellKeys || be.fwd.de.comboKeys {
		t.Fatal("the 30-bit memo was not taken, or its keys were judged to fit")
	}
	out := make([]Traffic, len(dst))
	for ri, s := range src {
		be.MeasureRow(ri, out)
		for ci, d := range dst {
			if want := p.Measure(s, d); out[ci] != want {
				t.Fatalf("cell (%d,%d): got %+v want %+v", ri, ci, out[ci], want)
			}
		}
	}
	if wide.cells.n != 0 || wide.combo.n != 0 {
		t.Errorf("keys that do not fit were stored: %d cell and %d combo entries", wide.cells.n, wide.combo.n)
	}
}
