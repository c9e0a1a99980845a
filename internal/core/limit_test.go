package core

import (
	"context"
	"errors"
	"testing"
	"time"

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
			_, err := o.Exhaustive(g)
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

// TestMeasureFallbackAt64Devices pins that the edge calc's table limit is a
// live guard at the widest machine the search accepts. On OPT-6.7B at 64
// devices, 4 of the block's 13 unique edges would need pattern tables past
// the limit with 32 devices per node, so prepareEdge leaves them calc-less
// for the Measure fill; with 16 per node every edge gets a calc.
func TestMeasureFallbackAt64Devices(t *testing.T) {
	g, err := model.BuildBlock(model.OPT6B7())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ perNode, calcLess int }{{16, 0}, {32, 4}} {
		o := optimizerFor(t, MaxPlanDevices, tc.perNode)
		in := &sigInterner{}
		slotOf, slotNode := nodeSlots(g, in)
		slotCands := make([]*nodeCands, len(slotNode))
		for s, ni := range slotNode {
			slotCands[s] = o.evalNode(g.Nodes[ni], o.Workers())
		}
		uniq, _ := edgeSlots(g, in)
		if len(uniq) != 13 {
			t.Fatalf("%d per node: %d unique edges, want 13", tc.perNode, len(uniq))
		}
		ot := o.newOverlapTables()
		calcLess := 0
		for _, e := range uniq {
			if o.prepareEdge(g, e, slotCands[slotOf[e.Src]], slotCands[slotOf[e.Dst]], ot).calc == nil {
				calcLess++
			}
		}
		if calcLess != tc.calcLess {
			t.Errorf("%d devices, %d per node: %d calc-less edges, want %d",
				MaxPlanDevices, tc.perNode, calcLess, tc.calcLess)
		}
	}
}
