package partition

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Linear operator axes (paper Eq. 1): B, M, N, K.
const (
	axB = 0
	axM = 1
	axN = 2
	axK = 3
)

var (
	dimsI  = []int{axB, axM, axN} // input I[B,M,N]
	dimsW  = []int{axN, axK}      // weight W[N,K] (and dW)
	dimsO  = []int{axB, axM, axK} // output O[B,M,K] (and dO)
	linDim = 4
)

// devOf maps grid coordinates (r, c) of a pure P_{2^k×2^k} sequence to the
// device ID: r bits occupy odd positions (1,3,...), c bits even positions.
func devOf(r, c, k int) int {
	dev := 0
	for j := 0; j < k; j++ {
		rb := (r >> (k - 1 - j)) & 1
		cb := (c >> (k - 1 - j)) & 1
		dev = dev<<2 | rb<<1 | cb
	}
	return dev
}

func TestTokenBitsAndSteps(t *testing.T) {
	if b := Split(axM).Bits(); b != 1 {
		t.Fatalf("Split bits = %d, want 1", b)
	}
	if s := Split(axM).Steps(); s != 1 {
		t.Fatalf("Split steps = %d, want 1", s)
	}
	p := NewPrime(2, axM, axN, axK)
	if p.Bits() != 4 {
		t.Fatalf("Prime(2) bits = %d, want 4", p.Bits())
	}
	if p.Steps() != 4 {
		t.Fatalf("Prime(2) steps = %d, want 4", p.Steps())
	}
}

func TestSeqAggregates(t *testing.T) {
	s := NewSeq(Split(axB), NewPrime(1, axM, axN, axK), Split(axN))
	if s.Bits() != 4 {
		t.Fatalf("Bits = %d, want 4", s.Bits())
	}
	if s.Steps() != 2 {
		t.Fatalf("Steps = %d, want 2", s.Steps())
	}
	if !s.HasPrime() {
		t.Fatal("HasPrime = false")
	}
	if n := s.NumSlices(axN); n != 4 {
		t.Fatalf("NumSlices(N) = %d, want 4 (prime 2 × split 2)", n)
	}
	if n := s.NumSlices(axB); n != 2 {
		t.Fatalf("NumSlices(B) = %d, want 2", n)
	}
}

func TestValidate(t *testing.T) {
	if err := NewSeq(Split(axM)).Validate(linDim, 1); err != nil {
		t.Fatalf("valid seq rejected: %v", err)
	}
	if err := NewSeq(Split(axM), Split(axN)).Validate(linDim, 1); err == nil {
		t.Fatal("over-budget seq accepted")
	}
	if err := NewSeq(Split(7)).Validate(linDim, 3); err == nil {
		t.Fatal("out-of-range split axis accepted")
	}
	if err := NewSeq(NewPrime(0, axM, axN, axK)).Validate(linDim, 4); err == nil {
		t.Fatal("Prime k=0 accepted")
	}
	// 2·K overflows to a negative bit count: rejected by the order bound,
	// not waved through by the total.
	if err := NewSeq(NewPrime(1<<62, axM, axN, axK), Split(axM)).Validate(linDim, 4); err == nil {
		t.Error("order 2^62 prime token accepted")
	}
	if err := NewSeq(NewPrime(3, axM, axN, axK)).Validate(linDim, 5); err == nil {
		t.Error("P8x8 accepted on 5 bits")
	}
	if err := NewSeq(NewPrime(1, axM, axM, axK)).Validate(linDim, 4); err == nil {
		t.Fatal("Prime with duplicate role axes accepted")
	}
}

func TestFormatAndKey(t *testing.T) {
	names := []string{"B", "M", "N", "K"}
	s := NewSeq(Split(axB), NewPrime(1, axM, axN, axK))
	if got := s.Format(names); got != "B,P2x2" {
		t.Fatalf("Format = %q, want B,P2x2", got)
	}
	if NewSeq().Format(names) != "∅" {
		t.Fatal("empty seq should format as ∅")
	}
	a := NewSeq(Split(axM)).Key()
	b := NewSeq(Split(axN)).Key()
	if a == b {
		t.Fatal("distinct sequences share a Key")
	}
}

func TestTemporalTupleMixedRadix(t *testing.T) {
	s := NewSeq(NewPrime(1, axM, axN, axK), Split(axB), NewPrime(2, axM, axN, axK))
	// Steps = 2 * 4 = 8; last prime varies fastest.
	if s.Steps() != 8 {
		t.Fatalf("Steps = %d, want 8", s.Steps())
	}
	tt := s.TemporalTuple(5) // 5 = 1*4 + 1 → t_first=1, t_last=1
	if tt[0] != 1 || tt[1] != 0 || tt[2] != 1 {
		t.Fatalf("TemporalTuple(5) = %v, want [1 0 1]", tt)
	}
	tt = s.TemporalTuple(3) // 3 = 0*4 + 3
	if tt[0] != 0 || tt[2] != 3 {
		t.Fatalf("TemporalTuple(3) = %v, want [0 0 3]", tt)
	}
}

// Paper Eqs. 2–3 and Fig. 3: partitioning M then N on 4 devices.
func TestFig3SplitMSplitN(t *testing.T) {
	s := NewSeq(Split(axM), Split(axN))
	nbits := 2
	for dev := 0; dev < 4; dev++ {
		d1, d2 := dev>>1, dev&1
		for _, ph := range Phases {
			dsi := s.SliceIndices(ph, linDim, nbits, dev, 0)
			if dsi[axM] != d1 {
				t.Fatalf("phase %v dev %d: I_M = %d, want d1=%d", ph, dev, dsi[axM], d1)
			}
			if dsi[axN] != d2 {
				t.Fatalf("phase %v dev %d: I_N = %d, want d2=%d", ph, dev, dsi[axN], d2)
			}
			if dsi[axB] != 0 || dsi[axK] != 0 {
				t.Fatalf("phase %v dev %d: B/K unexpectedly partitioned: %v", ph, dev, dsi)
			}
		}
	}
	// Fig. 3: W (and dW) are replicated between devices differing only in d1.
	if r := s.ReplicationFactor(Gradient, dimsW, linDim, nbits, 0); r != 2 {
		t.Fatalf("W replication = %d, want 2", r)
	}
	// Gradient phase reduces over B and M → all-reduce indicator is (d1).
	bits := s.SplitBitsFor([]int{axB, axM})
	if len(bits) != 1 || bits[0] != 1 {
		t.Fatalf("gradient all-reduce bits = %v, want [1]", bits)
	}
	// Forward reduces over N → all-reduce indicator is (d2).
	bits = s.SplitBitsFor([]int{axN})
	if len(bits) != 1 || bits[0] != 2 {
		t.Fatalf("forward all-reduce bits = %v, want [2]", bits)
	}
}

// Direct spot-checks of Eqs. 4–6 for P_{2×2}.
func TestPrimeDSIEquations(t *testing.T) {
	s := NewSeq(NewPrime(1, axM, axN, axK))
	nbits := 2
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			dev := devOf(r, c, 1)
			for tt := 0; tt < 2; tt++ {
				f := s.SliceIndices(Forward, linDim, nbits, dev, tt)
				if f[axM] != r%2 || f[axN] != (r+c+tt)%2 || f[axK] != c%2 {
					t.Fatalf("Forward (r=%d,c=%d,t=%d): got M=%d N=%d K=%d", r, c, tt, f[axM], f[axN], f[axK])
				}
				b := s.SliceIndices(Backward, linDim, nbits, dev, tt)
				if b[axM] != r%2 || b[axN] != mod(r+c-1, 2) || b[axK] != (c+tt)%2 {
					t.Fatalf("Backward (r=%d,c=%d,t=%d): got M=%d N=%d K=%d", r, c, tt, b[axM], b[axN], b[axK])
				}
				delta := 0
				if tt == 1 {
					delta = 1
				}
				g := s.SliceIndices(Gradient, linDim, nbits, dev, tt)
				if g[axM] != (r+tt)%2 || g[axN] != mod(r+c-1+delta, 2) || g[axK] != mod(c-1+delta, 2) {
					t.Fatalf("Gradient (r=%d,c=%d,t=%d): got M=%d N=%d K=%d", r, c, tt, g[axM], g[axN], g[axK])
				}
			}
		}
	}
}

func TestNegativeStepCountsFromEnd(t *testing.T) {
	s := NewSeq(NewPrime(2, axM, axN, axK))
	last := s.SliceIndices(Forward, linDim, 4, 5, -1)
	explicit := s.SliceIndices(Forward, linDim, 4, 5, s.Steps()-1)
	for i := range last {
		if last[i] != explicit[i] {
			t.Fatalf("step -1 DSI %v != last step DSI %v", last, explicit)
		}
	}
}

// Feature 1 (paper §3.3): P_{2^k×2^k} accumulates every reduced slice
// locally — no all-reduce in any phase. Forward reduces N, Backward K,
// Gradient B and M.
func TestFeature1CollectiveFree(t *testing.T) {
	for k := 1; k <= 3; k++ {
		s := NewSeq(NewPrime(k, axM, axN, axK))
		nbits := 2 * k
		if !s.CoversReduction(Forward, []int{axN}, linDim, nbits) {
			t.Fatalf("k=%d: Forward does not cover N locally", k)
		}
		if !s.CoversReduction(Backward, []int{axK}, linDim, nbits) {
			t.Fatalf("k=%d: Backward does not cover K locally", k)
		}
		if !s.CoversReduction(Gradient, []int{axB, axM}, linDim, nbits) {
			t.Fatalf("k=%d: Gradient does not cover B,M locally", k)
		}
		// No SplitDim tokens → no all-reduce group bits in any phase.
		if bits := s.SplitBitsFor([]int{axB, axM, axN, axK}); len(bits) != 0 {
			t.Fatalf("k=%d: unexpected all-reduce bits %v", k, bits)
		}
	}
}

// Feature 2 (paper §3.3): no tensor is replicated across device memories at
// any step of any phase.
func TestFeature2NoReplication(t *testing.T) {
	for k := 1; k <= 3; k++ {
		s := NewSeq(NewPrime(k, axM, axN, axK))
		nbits := 2 * k
		for _, ph := range Phases {
			for _, tensor := range [][]int{dimsI, dimsW, dimsO} {
				for step := 0; step < s.Steps(); step++ {
					if r := s.ReplicationFactor(ph, tensor, linDim, nbits, step); r != 1 {
						t.Fatalf("k=%d phase %v step %d dims %v: replication %d, want 1",
							k, ph, step, tensor, r)
					}
				}
			}
		}
	}
}

// Feature 3 (paper §3.3): stashed/weight tensors align across phase
// boundaries so training proceeds with no extra redistribution:
//   - W   at Forward end   == W  at Backward start,
//   - I   at Forward end   == I  at Gradient start,
//   - dO  at Backward end  == dO at Gradient start,
//   - dW  at Gradient end  == W  at Forward start (weight update locality).
func TestFeature3PhaseAlignment(t *testing.T) {
	for k := 1; k <= 3; k++ {
		s := NewSeq(NewPrime(k, axM, axN, axK))
		nbits := 2 * k
		if !s.Aligned(Forward, Backward, dimsW, linDim, nbits) {
			t.Fatalf("k=%d: W not aligned Forward→Backward", k)
		}
		if !s.Aligned(Forward, Gradient, dimsI, linDim, nbits) {
			t.Fatalf("k=%d: I not aligned Forward→Gradient", k)
		}
		if !s.Aligned(Backward, Gradient, dimsO, linDim, nbits) {
			t.Fatalf("k=%d: dO not aligned Backward→Gradient", k)
		}
		if !s.Aligned(Gradient, Forward, dimsW, linDim, nbits) {
			t.Fatalf("k=%d: dW at Gradient end not aligned with W at Forward start", k)
		}
	}
}

// Features survive composition with conventional splits (e.g. data parallel
// batch split outside a P_{2×2}).
func TestFeaturesWithMixedSequence(t *testing.T) {
	s := NewSeq(Split(axB), NewPrime(1, axM, axN, axK))
	nbits := 3
	if !s.CoversReduction(Forward, []int{axN}, linDim, nbits) {
		t.Fatal("mixed seq: Forward coverage broken")
	}
	if !s.Aligned(Forward, Gradient, dimsI, linDim, nbits) {
		t.Fatal("mixed seq: I alignment broken")
	}
	// W does not contain the batch axis → replicated across the batch bit.
	if r := s.ReplicationFactor(Forward, dimsW, linDim, nbits, 0); r != 2 {
		t.Fatalf("mixed seq: W replication = %d, want 2 (batch split)", r)
	}
	// I contains batch → never replicated.
	if r := s.ReplicationFactor(Forward, dimsI, linDim, nbits, 0); r != 1 {
		t.Fatalf("mixed seq: I replication = %d, want 1", r)
	}
	// Gradient reduces B and M: the batch split bit needs all-reduce.
	if bits := s.SplitBitsFor([]int{axB, axM}); len(bits) != 1 || bits[0] != 1 {
		t.Fatalf("mixed seq: gradient all-reduce bits = %v, want [1]", bits)
	}
}

// expectTransfers checks that derived transfers match an expected sender
// function (receiver grid coords → sender grid coords), for every device.
func expectTransfers(t *testing.T, got []Transfer, k int, sender func(r, c int) (int, int), label string) {
	t.Helper()
	n := 1 << k
	want := make(map[int]int) // to → from
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			sr, sc := sender(r, c)
			want[devOf(r, c, k)] = devOf(mod(sr, n), mod(sc, n), k)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d transfers, want %d", label, len(got), len(want))
	}
	for _, tr := range got {
		from, ok := want[tr.To]
		if !ok {
			t.Fatalf("%s: unexpected receiver %d", label, tr.To)
		}
		if from != tr.From {
			t.Fatalf("%s: receiver %d got block from %d, want %d", label, tr.To, tr.From, from)
		}
	}
}

// TestTable1SenderCoordinates proves that the ring communication patterns
// DERIVED from the DSI algebra coincide with the paper's hand-derived
// Table 1 for k = 1, 2, 3.
func TestTable1SenderCoordinates(t *testing.T) {
	for k := 1; k <= 3; k++ {
		s := NewSeq(NewPrime(k, axM, axN, axK))
		nbits := 2 * k
		steps := s.Steps()

		// Forward, t < 2^k−1: I from (r, c+1); W from (r+1, c).
		for tt := 0; tt < steps-1; tt++ {
			expectTransfers(t, s.StepTransfers(Forward, dimsI, linDim, nbits, tt), k,
				func(r, c int) (int, int) { return r, c + 1 }, "F/I")
			expectTransfers(t, s.StepTransfers(Forward, dimsW, linDim, nbits, tt), k,
				func(r, c int) (int, int) { return r + 1, c }, "F/W")
		}

		// Backward, t < 2^k−1: dO from (r, c+1); W from (r−1, c+1).
		for tt := 0; tt < steps-1; tt++ {
			expectTransfers(t, s.StepTransfers(Backward, dimsO, linDim, nbits, tt), k,
				func(r, c int) (int, int) { return r, c + 1 }, "B/dO")
			expectTransfers(t, s.StepTransfers(Backward, dimsW, linDim, nbits, tt), k,
				func(r, c int) (int, int) { return r - 1, c + 1 }, "B/W")
		}
		// Backward, t = 2^k−1: W from (r, c+1) — redistribution to the
		// Forward-start distribution for the next iteration.
		expectTransfers(t, s.PhaseTransitionTransfers(Backward, Forward, dimsW, linDim, nbits), k,
			func(r, c int) (int, int) { return r, c + 1 }, "B/W last")

		// Gradient, t < 2^k−2: I from (r+1, c−1); dO from (r+1, c).
		for tt := 0; tt < steps-2; tt++ {
			expectTransfers(t, s.StepTransfers(Gradient, dimsI, linDim, nbits, tt), k,
				func(r, c int) (int, int) { return r + 1, c - 1 }, "G/I")
			expectTransfers(t, s.StepTransfers(Gradient, dimsO, linDim, nbits, tt), k,
				func(r, c int) (int, int) { return r + 1, c }, "G/dO")
		}
		// Gradient, t = 2^k−2 (the δ flip): I from (r+1, c); dO from (r+1, c+1);
		// dW redistribution from (r, c+1).
		expectTransfers(t, s.StepTransfers(Gradient, dimsI, linDim, nbits, steps-2), k,
			func(r, c int) (int, int) { return r + 1, c }, "G/I δ")
		expectTransfers(t, s.StepTransfers(Gradient, dimsO, linDim, nbits, steps-2), k,
			func(r, c int) (int, int) { return r + 1, c + 1 }, "G/dO δ")
		expectTransfers(t, s.StepTransfers(Gradient, dimsW, linDim, nbits, steps-2), k,
			func(r, c int) (int, int) { return r, c + 1 }, "G/dW")
	}
}

// Table 1 blank entries: no communication where the paper leaves a blank.
func TestTable1BlankEntries(t *testing.T) {
	k := 2
	s := NewSeq(NewPrime(k, axM, axN, axK))
	nbits := 2 * k
	steps := s.Steps()
	// Forward last step → Gradient start: I stashes in place.
	if trs := s.PhaseTransitionTransfers(Forward, Gradient, dimsI, linDim, nbits); len(trs) != 0 {
		t.Fatalf("I should stash in place across F→G, got %d transfers", len(trs))
	}
	// Gradient steps t < 2^k−2 move no dW.
	for tt := 0; tt < steps-2; tt++ {
		if trs := s.StepTransfers(Gradient, dimsW, linDim, nbits, tt); len(trs) != 0 {
			t.Fatalf("dW moved at gradient step %d, want only at t=2^k−2", tt)
		}
	}
}

// Every within-phase transfer set of a pure prime is a permutation (each
// device sends exactly one block and receives exactly one block) between
// grid neighbours — the ring property that makes the communication cheap
// and overlappable.
func TestRingTransfersArePermutationsOfNeighbors(t *testing.T) {
	for k := 1; k <= 2; k++ {
		s := NewSeq(NewPrime(k, axM, axN, axK))
		nbits := 2 * k
		n := 1 << k
		coords := make(map[int][2]int)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				coords[devOf(r, c, k)] = [2]int{r, c}
			}
		}
		for _, ph := range Phases {
			for _, tensor := range [][]int{dimsI, dimsW, dimsO} {
				for tt := 0; tt < s.Steps()-1; tt++ {
					trs := s.StepTransfers(ph, tensor, linDim, nbits, tt)
					if len(trs) == 0 {
						continue
					}
					froms := make(map[int]bool)
					tos := make(map[int]bool)
					for _, tr := range trs {
						if froms[tr.From] || tos[tr.To] {
							t.Fatalf("k=%d %v t=%d: transfer set is not a permutation", k, ph, tt)
						}
						froms[tr.From] = true
						tos[tr.To] = true
						fc, tc := coords[tr.From], coords[tr.To]
						dr := mod(fc[0]-tc[0], n)
						dc := mod(fc[1]-tc[1], n)
						if (dr != 0 && dr != 1 && dr != n-1) || (dc != 0 && dc != 1 && dc != n-1) {
							t.Fatalf("k=%d %v t=%d: sender (%d,%d) is not a grid neighbour of (%d,%d)",
								k, ph, tt, fc[0], fc[1], tc[0], tc[1])
						}
					}
					if len(trs) != n*n {
						t.Fatalf("k=%d %v t=%d: %d transfers, want %d", k, ph, tt, len(trs), n*n)
					}
				}
			}
		}
	}
}

func TestPrimeBitPositionsAndUnusedBits(t *testing.T) {
	s := NewSeq(Split(axB), NewPrime(1, axM, axN, axK))
	pbs := s.PrimeBitPositions()
	if len(pbs) != 1 || len(pbs[0]) != 2 || pbs[0][0] != 2 || pbs[0][1] != 3 {
		t.Fatalf("PrimeBitPositions = %v, want [[2 3]]", pbs)
	}
	if ub := s.UnusedBits(5); len(ub) != 2 || ub[0] != 4 || ub[1] != 5 {
		t.Fatalf("UnusedBits = %v, want [4 5]", ub)
	}
	if ub := s.UnusedBits(3); len(ub) != 0 {
		t.Fatalf("UnusedBits = %v, want empty", ub)
	}
}

// Unused machine bits replicate the whole operator uniformly.
func TestUnusedBitsReplicate(t *testing.T) {
	s := NewSeq(Split(axM)) // 1 bit used on a 3-bit machine
	if r := s.ReplicationFactor(Forward, dimsI, linDim, 3, 0); r != 4 {
		t.Fatalf("replication with 2 unused bits = %d, want 4", r)
	}
}

// randomSeq builds a random valid sequence for the linear operator on a
// machine with nbits device bits.
func randomSeq(rng *rand.Rand, nbits int) Seq {
	var toks []Token
	remaining := nbits
	for remaining > 0 {
		if remaining >= 2 && rng.Intn(3) == 0 {
			k := 1
			if remaining >= 4 && rng.Intn(2) == 0 {
				k = 2
			}
			toks = append(toks, NewPrime(k, axM, axN, axK))
			remaining -= 2 * k
			continue
		}
		toks = append(toks, Split(rng.Intn(4)))
		remaining--
	}
	return NewSeq(toks...)
}

// Property: for any sequence, at any phase/step, the holder sets of any
// tensor partition the device set, and every slice has the same number of
// holders (bit symmetry).
func TestQuickHoldersPartitionDevices(t *testing.T) {
	tensors := [][]int{dimsI, dimsW, dimsO}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nbits := 2 + rng.Intn(3) // 4..16 devices
		s := randomSeq(rng, nbits)
		if err := s.Validate(linDim, nbits); err != nil {
			return false
		}
		ph := Phases[rng.Intn(3)]
		step := rng.Intn(s.Steps())
		for _, dims := range tensors {
			holders := s.Holders(ph, dims, linDim, nbits, step)
			total := 0
			first := -1
			for _, hs := range holders {
				total += len(hs)
				if first == -1 {
					first = len(hs)
				}
				if len(hs) != first {
					return false
				}
			}
			if total != 1<<nbits {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: phase alignment (Feature 3) holds for every sequence in the
// space, not just pure primes — the property the optimizer relies on when
// costing phase transitions at zero.
func TestQuickAlignmentHoldsForAllSequences(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nbits := 2 + rng.Intn(3)
		s := randomSeq(rng, nbits)
		return s.Aligned(Forward, Backward, dimsW, linDim, nbits) &&
			s.Aligned(Forward, Gradient, dimsI, linDim, nbits) &&
			s.Aligned(Backward, Gradient, dimsO, linDim, nbits) &&
			s.Aligned(Gradient, Forward, dimsW, linDim, nbits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: CoversReduction holds per phase for any sequence (the spatial
// split parts are factored out into all-reduce; the temporal parts must
// cover exactly).
func TestQuickCoverageForAllSequences(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nbits := 2 + rng.Intn(3)
		s := randomSeq(rng, nbits)
		return s.CoversReduction(Forward, []int{axN}, linDim, nbits) &&
			s.CoversReduction(Backward, []int{axK}, linDim, nbits) &&
			s.CoversReduction(Gradient, []int{axB, axM}, linDim, nbits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
