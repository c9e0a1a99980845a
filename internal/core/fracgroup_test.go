package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/model"
)

// TestEdgeFracGroups pins the edge phase's fraction census on three Table-2
// blocks at 8 devices: the 13 matrices a cold search builds form 7 fraction
// groups, with softmax→av the one transposed member (of qkt→softmax). Every
// matrix the groups fill must equal a per-cell RedistributeDetail of
// EdgePlan.Measure bit for bit, leaders and members alike.
func TestEdgeFracGroups(t *testing.T) {
	for _, cfg := range []model.Config{model.OPT175B(), model.Llama2_70B(), model.BLOOM176B()} {
		t.Run(cfg.Name, func(t *testing.T) {
			g, err := model.BuildBlock(cfg)
			if err != nil {
				t.Fatal(err)
			}
			o := optimizerFor(t, 8, 4)
			cands := make([]*nodeEntry, len(g.Nodes))
			for i, op := range g.Nodes {
				cands[i] = o.evalNode(op, 1)
			}
			edges, _ := edgeSlots(g, &sigInterner{})
			ot := o.newOverlapTables()
			builds := make([]*edgeBuild, len(edges))
			for i, e := range edges {
				builds[i] = o.prepareEdge(g, e, cands[e.Src], cands[e.Dst], ot)
			}
			edgeOf := make(map[*cost.EdgeCalc]string, len(builds))
			for i, b := range builds {
				edgeOf[b.calc] = fmt.Sprintf("%d→%d", edges[i].Src, edges[i].Dst)
			}
			groups := fracGroups(builds)
			var transposed []string
			needRows, needCols := make([][]bool, len(groups)), make([][]bool, len(groups))
			for i, gr := range groups {
				for _, mb := range gr.members {
					if mb.Transposed {
						transposed = append(transposed, edgeOf[mb.Calc]+" of "+edgeOf[gr.lead.calc])
					}
				}
				needRows[i], needCols[i] = allTrue(gr.lead.m.nr), allTrue(gr.lead.m.nc)
			}
			if _, _, err := growGroups(context.Background(), o.Cost, groups, needRows, needCols, 1); err != nil {
				t.Fatal(err)
			}
			if len(builds) != 13 || len(groups) != 7 {
				t.Fatalf("%d built matrices in %d groups, want 13 in 7", len(builds), len(groups))
			}
			want := fmt.Sprintf("%d→%d of %d→%d", model.NodeSoftmax, model.NodeAV, model.NodeQKT, model.NodeSoftmax)
			if len(transposed) != 1 || transposed[0] != want {
				t.Fatalf("transposed members %v, want exactly [%s]", transposed, want)
			}
			// A lone group runs banded on every worker, so the transposed
			// member's columns are written from several goroutines (run
			// under -race in CI); the values must not move.
			var pair []*graph.Edge
			var serial []*edgeBuild
			for i, e := range edges {
				if e.Dst == model.NodeSoftmax || e.Src == model.NodeSoftmax {
					pair = append(pair, e)
					serial = append(serial, builds[i])
				}
			}
			banded, _, err := o.buildEdgeMats(context.Background(), g, pair, cands, o.newOverlapTables(), 4)
			if err != nil {
				t.Fatal(err)
			}
			for k, m := range banded {
				if !slices.Equal(m.vals, serial[k].m.flat().vals) {
					t.Fatalf("edge %d→%d: a 4-worker fill differs from the serial one", pair[k].Src, pair[k].Dst)
				}
			}
			for i, b := range builds {
				e := edges[i]
				want := measureMat(o.Cost, g, e, cands[e.Src], cands[e.Dst])
				for k, got := range b.m.flat().vals {
					if got != want.vals[k] {
						t.Fatalf("edge %d→%d cell (%d,%d): grouped fill %v, Measure %v",
							e.Src, e.Dst, k/b.m.nc, k%b.m.nc, got, want.vals[k])
					}
				}
			}
		})
	}
}
