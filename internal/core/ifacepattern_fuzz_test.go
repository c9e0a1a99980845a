package core

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/graph"
)

// refAppendIfaceClass is the byte-keyed grouping ifaceGroups replaced, kept
// as the reference: it appends ifc's class bytes on axes, per axis the
// width, then every device's forward and backward interval start.
func refAppendIfaceClass(b []byte, ifc *cost.Iface, axes []int) []byte {
	devs := len(ifc.Fwd) / ifc.NumAxes
	for _, ax := range axes {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ifc.Width[ax]))
		for dev := 0; dev < devs; dev++ {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ifc.Fwd[dev*ifc.NumAxes+ax]))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ifc.Bwd[dev*ifc.NumAxes+ax]))
		}
	}
	return b
}

// refIfaceGroups groups ifaces by refAppendIfaceClass bytes, ids and
// representatives in first-seen order.
func refIfaceGroups(ifaces []*cost.Iface, axes []int) (ids, reps []int32) {
	byKey := make(map[string]int32)
	ids = make([]int32, len(ifaces))
	var key []byte
	for i, ifc := range ifaces {
		key = refAppendIfaceClass(key[:0], ifc, axes)
		id, ok := byKey[string(key)]
		if !ok {
			id = int32(len(reps))
			byKey[string(key)] = id
			reps = append(reps, int32(i))
		}
		ids[i] = id
	}
	return ids, reps
}

// refPatternIDs is the per-edge pattern numbering the edge calc used before
// candidate spaces interned their patterns, kept as the reference: it groups
// ifaces by the exact bytes of their width and every device's start on axis
// ax of the chosen pass, returning per-interface ids and the distinct
// patterns' keys in first-seen order.
func refPatternIDs(ifaces []*cost.Iface, ax int, fwd bool) ([]int32, []string) {
	byKey := make(map[string]int32)
	ids := make([]int32, len(ifaces))
	var keys []string
	var buf []byte
	for i, ifc := range ifaces {
		arr := ifc.Fwd
		if !fwd {
			arr = ifc.Bwd
		}
		devs := len(arr) / ifc.NumAxes
		buf = binary.LittleEndian.AppendUint64(buf[:0], math.Float64bits(ifc.Width[ax]))
		for dev := 0; dev < devs; dev++ {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(arr[dev*ifc.NumAxes+ax]))
		}
		id, ok := byKey[string(buf)]
		if !ok {
			id = int32(len(keys))
			key := string(buf)
			byKey[key] = id
			keys = append(keys, key)
		}
		ids[i] = id
	}
	return ids, keys
}

// FuzzIfacePatternGroups pins the pattern-id grouping to the byte-keyed
// reference it replaced. For a random edge on 4 to 32 devices and random
// subsets of both candidate spaces, ifaceGroups over the spaces' interned
// patterns must return the reference's groups and representatives, ids in
// the same first-seen order, and LocalIDs must number every axis and pass of
// the representatives (and of an arbitrary candidate subset) exactly as the
// reference does. The search tests' uncached reference groups through
// ifaceGroups too, so the search equivalence tests cannot catch a grouping bug; this
// does.
func FuzzIfacePatternGroups(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0, 4, 2, 1, 1, 0, 0, 2, 1, 7, 0, 1, 1, 2, 0, 3, 1, 0, 3, 0xAA, 0x55, 7})
	f.Add([]byte{3, 2, 3, 1, 4, 0, 1, 5, 0, 1, 3, 0, 0, 0, 4, 3, 3, 2, 1, 0, 2, 0xFF, 0xFF, 3})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 1, 0x0F, 0xF0})
	// Two four-axis Prime-capable ops with every axis splittable into 8, on
	// 32 devices over whole spaces, then on 16 devices over subsets.
	rich := []byte{3, 0, 0, 3, 0, 1, 3, 0, 2, 3, 0, 3, 3, 0, 0, 1, 0, 0, 1, 2, 0, 3, 0,
		3, 1, 0, 3, 0, 1, 3, 0, 2, 3, 0, 3, 3, 0, 0, 1, 2, 0, 3, 0, 1, 0,
		0, 2}
	f.Add(append(slices.Clone(rich), 3, 0, 0, 2))
	f.Add(append(slices.Clone(rich), 2, 0x5A, 0xC3, 0))
	// Candidates equal in every forward pattern but not in a backward one:
	// a grouping that reads forward ids alone merges them.
	f.Add([]byte("0000000000007001001001000000012"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		src, dst, dt, axisMap := edgeConfigFromBytes(r)
		g := &graph.Graph{Name: "fuzz"}
		g.AddNode(src)
		g.AddNode(dst)
		e := g.Connect(0, 1, dt, axisMap)
		devices := 4 << r.intn(4)
		m := cost.NewModel(device.MustCluster(devices, 4, device.V100Profile()))
		plan := m.PlanEdge(g, e)
		mask := [2]byte{r.next(), r.next()}
		stride := 1 + r.intn(5)

		// subset keeps candidate i when bit i%8 of its mask byte is set, or
		// every candidate for a zero mask, capped to keep each input cheap.
		subset := func(op *graph.Op, mask byte, out bool) []*cost.Iface {
			var ifs []*cost.Iface
			for i, s := range Candidates(op, m.Cluster.Bits(), DefaultOptions()) {
				if mask != 0 && mask&(1<<(i%8)) == 0 {
					continue
				}
				if out {
					ifs = append(ifs, m.OutputIface(op, s))
				} else {
					ifs = append(ifs, m.InputIface(op, s))
				}
				if len(ifs) == 96 {
					break
				}
			}
			return ifs
		}
		for _, side := range []struct {
			name string
			ifs  []*cost.Iface
			axes []int
		}{
			{"src", subset(src, mask[0], true), plan.SrcRelevantAxes()},
			{"dst", subset(dst, mask[1], false), plan.DstRelevantAxes()},
		} {
			ps := cost.NewPatterns(side.ifs)
			if ps.Len() != len(side.ifs) {
				t.Fatalf("%s: Patterns holds %d interfaces, want %d", side.name, ps.Len(), len(side.ifs))
			}
			ids, reps := ifaceGroups(ps, side.axes)
			wantIDs, wantReps := refIfaceGroups(side.ifs, side.axes)
			if !slices.Equal(ids, wantIDs) || !slices.Equal(reps, wantReps) {
				t.Fatalf("%s axes %v: groups %v reps %v, reference %v reps %v", side.name, side.axes, ids, reps, wantIDs, wantReps)
			}
			// Every axis and pass covers every pairing an edge calc can make.
			var every []int32
			for i := len(side.ifs) - 1; i >= 0; i -= stride {
				every = append(every, int32(i))
			}
			for _, sel := range [][]int32{reps, every} {
				selIfs := make([]*cost.Iface, len(sel))
				for k, i := range sel {
					selIfs[k] = side.ifs[i]
				}
				for ax := 0; len(side.ifs) > 0 && ax < side.ifs[0].NumAxes; ax++ {
					for _, fwd := range []bool{true, false} {
						got, space := ps.LocalIDs(sel, ax, fwd)
						want, keys := refPatternIDs(selIfs, ax, fwd)
						if !slices.Equal(got, want) || len(space) != len(keys) {
							t.Fatalf("%s axis %d fwd %v: local ids %v (%d patterns), reference %v (%d)",
								side.name, ax, fwd, got, len(space), want, len(keys))
						}
					}
				}
			}
		}
	})
}
