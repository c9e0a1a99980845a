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
					pat := axisPattern{width: ifc.Width[ax], starts: arr[ax:], devs: 16, stride: 3}
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
		if calc == nil {
			t.Fatalf("trial %d: NewCalc fell back unexpectedly", trial)
		}
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
// matrices whose memos are sized to a handful of slots, pooled interfaces
// whose cells repeat within a row, and memos restarted at two slots so every
// table grows several times mid-fill.
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
		tiny       bool
	}{
		{"1xN", 1, 40, false, false},
		{"Nx1", 40, 1, false, false},
		{"1x1", 1, 1, false, false},
		{"random", 20, 30, false, false},
		{"pooled", 30, 60, true, false},
		{"pooled-tiny-memo", 30, 60, true, true},
		{"random-tiny-memo", 20, 30, false, true},
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
			if calc == nil {
				t.Fatalf("%s trial %d: NewCalc fell back unexpectedly", sh.name, trial)
			}
			be := calc.Block()
			if sh.tiny {
				for _, tab := range []*cellTab{&be.fwd.de.cells, &be.fwd.de.combo, &be.bwd.de.cells, &be.bwd.de.combo} {
					tab.initSize(0)
				}
			}
			out := make([]Traffic, len(dstReps))
			for ri, s := range srcReps {
				be.MeasureRow(ri, out)
				for ci, d := range dstReps {
					if want := p.Measure(s, d); out[ci] != want {
						t.Fatalf("%s trial %d cell (%d,%d): got %+v want %+v", sh.name, trial, ri, ci, out[ci], want)
					}
				}
			}
			if sh.tiny {
				for _, tab := range []*cellTab{&be.fwd.de.cells, &be.bwd.de.cells} {
					if len(tab.slots) <= 2 {
						t.Fatalf("%s trial %d: tiny cell memo never grew (%d entries)", sh.name, trial, tab.n)
					}
				}
			}
		}
	}
}

// TestBlockMemoSizedToMatrix pins the memo start sizes: a matrix that can
// hold k cell keys starts with room for all of them and no more, and a big
// matrix keeps the capped start.
func TestBlockMemoSizedToMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := &EdgePlan{
		devices: 8, perNode: 4, eb: 2, dstFull: 1024, srcFull: 1024,
		fwdDst: []int{0, 1}, fwdSrc: []int{0, 1},
		bwdSrc: []int{0, 1}, bwdDst: []int{0, 1},
	}
	for _, tc := range []struct{ rows, cols, wantCells int }{
		{1, 1, 2},
		{3, 5, 32},
		{300, 300, cellMemoCap},
	} {
		calc := newCalcOver(p, NewOverlapTables(p.devices, p.perNode), randIfaces(rng, tc.rows, 8, 2), randIfaces(rng, tc.cols, 8, 2))
		be := calc.Block()
		if got := len(be.fwd.de.cells.slots); got != tc.wantCells {
			t.Errorf("%dx%d: cell memo starts at %d slots, want %d", tc.rows, tc.cols, got, tc.wantCells)
		}
		if got := len(be.fwd.de.combo.slots); got > comboMemoCap {
			t.Errorf("%dx%d: combo memo starts at %d slots, above the %d cap", tc.rows, tc.cols, got, comboMemoCap)
		}
	}
}
