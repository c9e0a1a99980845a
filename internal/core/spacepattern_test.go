package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/partition"
)

// ifacePatterns is the reference SpacePatterns is pinned to: NewPatterns
// over the output (out) or input interface of every sequence.
func ifacePatterns(m *cost.Model, op *graph.Op, seqs []partition.Seq, out bool) *cost.Patterns {
	ifs := make([]*cost.Iface, len(seqs))
	for i, s := range seqs {
		if out {
			ifs[i] = m.OutputIface(op, s)
		} else {
			ifs[i] = m.InputIface(op, s)
		}
	}
	return cost.NewPatterns(ifs)
}

// samePatterns reports the first difference between two pattern sets over
// numAxes axes, comparing bit for bit: every interface's id in every axis
// and pass, every slot's pattern count (hence every slot's base), and every
// pattern's width and starts.
func samePatterns(got, want *cost.Patterns, numAxes int) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("%d interfaces, want %d", got.Len(), want.Len())
	}
	if want.Len() == 0 {
		return nil
	}
	for ax := 0; ax < numAxes; ax++ {
		for _, fwd := range []bool{true, false} {
			if g, w := got.Count(ax, fwd), want.Count(ax, fwd); g != w {
				return fmt.Errorf("axis %d fwd %v: %d patterns, want %d", ax, fwd, g, w)
			}
			for i := 0; i < want.Len(); i++ {
				if g, w := got.ID(i, ax, fwd), want.ID(i, ax, fwd); g != w {
					return fmt.Errorf("axis %d fwd %v: interface %d has id %d, want %d", ax, fwd, i, g, w)
				}
			}
			for id := int32(0); int(id) < want.Count(ax, fwd); id++ {
				gw, gs := got.Pattern(ax, fwd, id)
				ww, ws := want.Pattern(ax, fwd, id)
				if math.Float64bits(gw) != math.Float64bits(ww) || len(gs) != len(ws) {
					return fmt.Errorf("axis %d fwd %v pattern %d: width %v over %d devices, want %v over %d", ax, fwd, id, gw, len(gs), ww, len(ws))
				}
				for dev := range ws {
					if math.Float64bits(gs[dev]) != math.Float64bits(ws[dev]) {
						return fmt.Errorf("axis %d fwd %v pattern %d: device %d starts at %v, want %v", ax, fwd, id, dev, gs[dev], ws[dev])
					}
				}
			}
		}
	}
	return nil
}

// checkSpacePatterns fails t unless SpacePatterns equals the interface
// reference on both sides of seqs.
func checkSpacePatterns(t *testing.T, m *cost.Model, op *graph.Op, seqs []partition.Seq) {
	t.Helper()
	for _, out := range []bool{true, false} {
		if err := samePatterns(m.SpacePatterns(op, seqs, out), ifacePatterns(m, op, seqs, out), len(op.Axes)); err != nil {
			t.Fatalf("%s on %d devices, out %v: %v", op.Name, m.Cluster.NumDevices, out, err)
		}
	}
}

// TestSpacePatternsMatchInterfaces pins the node pass's patterns to the
// interfaces they replace on every node of every paper model's block, over
// the whole candidate space, at 4–64 devices with 4 and 8 per node (≤ 16
// devices under -short). The patterns read an op only through its axis
// count and candidates, so each distinct pair is checked once per cluster.
func TestSpacePatternsMatchInterfaces(t *testing.T) {
	var blocks []*graph.Graph
	for _, cfg := range model.All() {
		g, err := model.BuildBlock(cfg)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, g)
	}
	for devices := 4; devices <= MaxPlanDevices; devices *= 2 {
		if testing.Short() && devices > 16 {
			break
		}
		for _, perNode := range []int{4, 8} {
			m := cost.NewModel(device.MustCluster(devices, perNode, device.V100Profile()))
			seen := make(map[string]bool)
			for _, g := range blocks {
				for _, op := range g.Nodes {
					seqs := Candidates(op, m.Cluster.Bits(), DefaultOptions())
					var key strings.Builder
					fmt.Fprint(&key, len(op.Axes))
					for _, s := range seqs {
						key.WriteString("|" + s.Key())
					}
					if !seen[key.String()] {
						seen[key.String()] = true
						checkSpacePatterns(t, m, op, seqs)
					}
				}
			}
		}
	}
}

// TestSpacePatternsWidestSequences pins the projection key at the largest
// machine (1024 devices, ten ID bits) on the sequences that fill it most:
// ten splits of one axis, the widest Prime token, and Prime tokens of every
// order with splits between them, each on every role assignment.
func TestSpacePatternsWidestSequences(t *testing.T) {
	op := model.NewLinear("lin", 1024, 1024, 1024, 1024)
	m := cost.NewModel(device.MustCluster(device.MaxDevices, 8, device.V100Profile()))
	var seqs []partition.Seq
	for ax := range op.Axes {
		var toks []partition.Token
		for i := 0; i < 10; i++ {
			toks = append(toks, partition.Split(ax))
		}
		seqs = append(seqs, partition.NewSeq(toks...))
	}
	for _, r := range [][3]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}} {
		seqs = append(seqs,
			partition.NewSeq(partition.NewPrime(5, r[0], r[1], r[2])),
			partition.NewSeq(partition.Split(r[0]), partition.NewPrime(4, r[0], r[1], r[2]), partition.Split(r[2])),
			partition.NewSeq(partition.NewPrime(1, r[0], r[1], r[2]), partition.Split(r[1]),
				partition.NewPrime(2, r[1], r[2], r[0]), partition.Split(r[0])),
			partition.NewSeq(partition.NewPrime(3, r[0], r[1], r[2]), partition.NewPrime(2, r[2], r[1], r[0])))
	}
	for _, s := range seqs {
		if err := s.Validate(len(op.Axes), m.Cluster.Bits()); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
	}
	checkSpacePatterns(t, m, op, seqs)
}

// seqFromBytes decodes a sequence over numDims axes that fits nbits ID
// bits: splits, and Prime tokens of any order the remaining bits allow on
// three distinct role axes, until the stream says stop or the bits run out.
func seqFromBytes(r *byteReader, numDims, nbits int) partition.Seq {
	var toks []partition.Token
	for left := nbits; left > 0 && r.next()&3 != 0; {
		if prime := r.next()&1 == 1; !prime || numDims < 3 || left < 2 {
			toks = append(toks, partition.Split(r.intn(numDims)))
			left--
			continue
		}
		axes := make([]int, numDims)
		for i := range axes {
			axes[i] = i
		}
		var role [3]int
		for j := range role {
			k := r.intn(len(axes))
			role[j] = axes[k]
			axes = append(axes[:k], axes[k+1:]...)
		}
		k := 1 + r.intn(left/2)
		toks = append(toks, partition.NewPrime(k, role[0], role[1], role[2]))
		left -= 2 * k
	}
	return partition.NewSeq(toks...)
}

// FuzzSpacePatterns pins SpacePatterns to NewPatterns over the interfaces
// it replaces, bit for bit: ids, slot bases, widths and starts. For a random
// op on 4 to 1024 devices with 1 to 8 per node it checks a random subset of
// the candidate space, plus up to three random valid sequences, which reach
// projections the candidate enumeration never makes (Prime tokens on any
// axes, up to ten tokens on one axis).
func FuzzSpacePatterns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0, 4, 2, 1, 1, 0, 0, 2, 1, 7, 0, 1, 1, 2, 0, 3, 1, 0})
	f.Add([]byte{3, 0, 0, 3, 0, 1, 3, 0, 2, 3, 0, 3, 3, 0, 0, 1, 0, 0, 1, 2, 0, 3, 0, 3, 2, 0})
	// A four-axis op on 1024 devices, one per node, and three valid
	// sequences: ten splits of one axis, a P32x32, and Prime tokens of
	// orders 2, 1 and 1 between splits.
	op4 := []byte{3, 0, 0, 3, 0, 1, 3, 0, 2, 3, 0, 3, 3, 0, 0, 1, 0, 0, 1, 2, 0, 3, 0}
	wide := append(slices.Clone(op4), 8, 0, 0x0F, 3)
	for i := 0; i < 10; i++ {
		wide = append(wide, 1, 0, 1)
	}
	wide = append(wide, 1, 1, 0, 0, 0, 4)
	wide = append(wide, 1, 1, 2, 1, 0, 1, 1, 0, 3, 1, 1, 0, 0, 0, 2, 1, 1, 3, 0, 1, 0, 1, 0, 2)
	f.Add(wide)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		op := opFromBytes(r)
		devices, perNode := 4<<r.intn(9), 1<<r.intn(4)
		m := cost.NewModel(device.MustCluster(devices, perNode, device.V100Profile()))
		mask := r.next()
		var seqs []partition.Seq
		for i, s := range Candidates(op, m.Cluster.Bits(), DefaultOptions()) {
			if mask != 0 && mask&(1<<(i%8)) == 0 {
				continue
			}
			if seqs = append(seqs, s); len(seqs) == 64 {
				break
			}
		}
		for n := r.intn(4); n > 0; n-- {
			s := seqFromBytes(r, len(op.Axes), m.Cluster.Bits())
			if err := s.Validate(len(op.Axes), m.Cluster.Bits()); err != nil {
				t.Fatalf("decoded an invalid sequence %v: %v", s, err)
			}
			seqs = append(seqs, s)
		}
		checkSpacePatterns(t, m, op, seqs)
	})
}
