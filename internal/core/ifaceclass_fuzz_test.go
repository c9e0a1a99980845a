package core

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/graph"
)

// FuzzIfaceClassEquivalence pins the theorem the whole interface-class
// factoring rests on: two candidates that ifaceGroups puts in one class of
// an edge (equal interface bytes on its relevant axes) produce IDENTICAL
// edge-cost rows (resp. columns) —
// bit-identical Traffic against every candidate on the other side. It also
// cross-checks the table evaluator: EdgeCalc cells must equal direct Measure
// calls on the same interfaces.
func FuzzIfaceClassEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0, 4, 2, 1, 1, 0, 0, 2, 1, 7, 0, 1, 1, 2, 0, 3, 1, 0})
	f.Add([]byte{2, 0, 4, 0, 1, 4, 0, 9, 9, 2, 1, 4, 0, 0, 4, 0, 9, 9, 5, 5})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		src, dst, dt, axisMap := edgeConfigFromBytes(r)
		g := &graph.Graph{Name: "fuzz"}
		g.AddNode(src)
		g.AddNode(dst)
		e := g.Connect(0, 1, dt, axisMap)

		m := cost.NewModel(device.MustCluster(4, 2, device.V100Profile()))
		opts := DefaultOptions()
		srcSeqs := Candidates(src, m.Cluster.Bits(), opts)
		dstSeqs := Candidates(dst, m.Cluster.Bits(), opts)
		const maxCands = 48 // keep the quadratic check cheap per input
		if len(srcSeqs) > maxCands {
			srcSeqs = srcSeqs[:maxCands]
		}
		if len(dstSeqs) > maxCands {
			dstSeqs = dstSeqs[:maxCands]
		}
		srcIfs := make([]*cost.Iface, len(srcSeqs))
		for i, s := range srcSeqs {
			srcIfs[i] = m.OutputIface(src, s)
		}
		dstIfs := make([]*cost.Iface, len(dstSeqs))
		for i, s := range dstSeqs {
			dstIfs[i] = m.InputIface(dst, s)
		}
		plan := m.PlanEdge(g, e)

		// The classes the search builds matrices over.
		srcPats, dstPats := cost.NewPatterns(srcIfs), cost.NewPatterns(dstIfs)
		rowOf, _ := ifaceGroups(srcPats, plan.SrcRelevantAxes())
		colOf, _ := ifaceGroups(dstPats, plan.DstRelevantAxes())

		// Full Traffic matrix through the table evaluator (every candidate
		// its own representative), cross-checked against direct Measure.
		cells := make([][]cost.Traffic, len(srcIfs))
		calc := plan.NewCalc(cost.NewOverlapTables(m.Cluster.NumDevices, m.Cluster.DevicesPerNode),
			srcPats, identityIDs(len(srcIfs)), dstPats, identityIDs(len(dstIfs)))
		be := calc.Block()
		row := make([]cost.Traffic, len(dstIfs))
		for i := range srcIfs {
			cells[i] = make([]cost.Traffic, len(dstIfs))
			be.MeasureRow(i, row)
			for j := range dstIfs {
				direct := plan.Measure(srcIfs[i], dstIfs[j])
				cells[i][j] = direct
				if row[j] != direct {
					t.Fatalf("EdgeCalc cell (%d,%d) = %+v, Measure = %+v\nsrc=%v dst=%v",
						i, j, row[j], direct, srcSeqs[i], dstSeqs[j])
				}
			}
		}

		// Equal pattern tuples ⟹ equal rows / columns, bit for bit.
		firstRow := make(map[int32]int)
		for i, c := range rowOf {
			p, seen := firstRow[c]
			if !seen {
				firstRow[c] = i
				continue
			}
			for j := range dstIfs {
				if cells[i][j] != cells[p][j] {
					t.Fatalf("src candidates %d and %d share class %d but differ at column %d: %+v vs %+v\nseqs %v vs %v",
						i, p, c, j, cells[i][j], cells[p][j], srcSeqs[i], srcSeqs[p])
				}
			}
		}
		firstCol := make(map[int32]int)
		for j, c := range colOf {
			p, seen := firstCol[c]
			if !seen {
				firstCol[c] = j
				continue
			}
			for i := range srcIfs {
				if cells[i][j] != cells[i][p] {
					t.Fatalf("dst candidates %d and %d share class %d but differ at row %d: %+v vs %+v\nseqs %v vs %v",
						j, p, c, i, cells[i][j], cells[i][p], dstSeqs[j], dstSeqs[p])
				}
			}
		}
	})
}
