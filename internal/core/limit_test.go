package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/model"
)

// TestPlanDeviceLimit: above MaxPlanDevices, Plan, EstimatePlan and
// Exhaustive return ErrTooManyDevices before enumerating any candidate, so
// the answer comes back at once.
func TestPlanDeviceLimit(t *testing.T) {
	g, err := model.BuildBlock(model.OPT175B())
	if err != nil {
		t.Fatal(err)
	}
	o := optimizerFor(t, 2*MaxPlanDevices, 4)
	o.Cache = NewSearchCache()
	req := PlanRequest{Graph: g, Layers: 2}
	for name, call := range map[string]func() error{
		"Plan": func() error {
			_, err := o.Plan(context.Background(), req)
			return err
		},
		"EstimatePlan": func() error {
			_, err := o.EstimatePlan(req)
			return err
		},
		"Exhaustive": func() error {
			_, err := o.Exhaustive(g, nil)
			return err
		},
	} {
		start := time.Now()
		err := call()
		if !errors.Is(err, ErrTooManyDevices) {
			t.Errorf("%s at %d devices: %v, want ErrTooManyDevices", name, 2*MaxPlanDevices, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s took %v to reject %d devices", name, d, 2*MaxPlanDevices)
		}
	}
}

// TestEdgeCalcAt64Devices pins that the edge calc serves the widest
// machines the search accepts: on OPT-6.7B at 64 devices with 16, 32 and
// 64 devices per node, every one of the block's 13 unique edges builds a
// calc, and one sampled row per edge, filled through a BlockEval, equals a
// per-cell RedistributeDetail of EdgePlan.Measure bit for bit. Each edge's
// matrix is dropped once checked, so the test holds one at a time. The
// 64-per-node shape is skipped under -short.
func TestEdgeCalcAt64Devices(t *testing.T) {
	g, err := model.BuildBlock(model.OPT6B7())
	if err != nil {
		t.Fatal(err)
	}
	for _, perNode := range []int{16, 32, 64} {
		t.Run(fmt.Sprintf("%dPerNode", perNode), func(t *testing.T) {
			if testing.Short() && perNode == 64 {
				t.Skip("64 devices on one node: skipped under -short")
			}
			o := optimizerFor(t, MaxPlanDevices, perNode)
			in := &sigInterner{}
			slotOf, slotNode := nodeSlots(g, in)
			slotCands := make([]*nodeEntry, len(slotNode))
			for s, ni := range slotNode {
				slotCands[s] = o.evalNode(g.Nodes[ni], o.Workers())
			}
			uniq, _ := edgeSlots(g, in)
			if len(uniq) != 13 {
				t.Fatalf("%d unique edges, want 13", len(uniq))
			}
			ot := o.newOverlapTables()
			for i, e := range uniq {
				src, dst := slotCands[slotOf[e.Src]], slotCands[slotOf[e.Dst]]
				b := o.prepareEdge(g, e, src, dst, ot)
				if b.calc == nil {
					t.Fatalf("edge %d→%d built no calc", e.Src, e.Dst)
				}
				r := (i * 7919) % b.m.nr
				be := b.calc.Block()
				be.FillRow(o.Cost, r, identityIDs(b.m.nc), []cost.FracMember{{Calc: b.calc, Vals: b.m.vals}})
				be.Release()
				want := make([]float64, b.m.nc)
				newRefEdge(o.Cost, g, e, src, dst).fillRow(o.Cost, r, want)
				for c, got := range b.m.row(r) {
					if got != want[c] {
						t.Fatalf("edge %d→%d cell (%d,%d): calc %v, Measure %v", e.Src, e.Dst, r, c, got, want[c])
					}
				}
			}
		})
	}
}
