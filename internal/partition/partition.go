// Package partition implements PrimePar's tensor partition space (paper §3).
//
// A partition strategy for an operator is a sequence 𝒫 of basic partition
// tokens. Each token consumes device-ID bits in order (d_1 outermost):
//
//   - SplitDim(X) — the conventional "partition by dimension": dimension X is
//     cut in two, devices differing in the consumed bit hold different
//     halves (paper §3.2, Eqs. 2–3). Consumes 1 bit.
//
//   - Prime(k) — the paper's novel spatial-temporal primitive P_{2^k×2^k}
//     (§3.3): a matmul-like operator with role dimensions (M, N, K) is cut
//     into 2^k slices along each of M, N and K; the resulting sub-operators
//     are distributed over a logical 2^k × 2^k device square AND over 2^k
//     temporal steps, following Eqs. 4–6. Consumes 2k bits — even-offset
//     bits form the row index r, odd-offset bits the column index c
//     (Algorithm 1 lines 9–10).
//
// The package evaluates Dimension Slice Indices (DSIs) exactly as Algorithm 1
// prescribes, derives inter-step ring communication from the DSI algebra
// (rather than hard-coding the paper's Table 1 — a test proves the derived
// patterns equal Table 1), and provides checkers for the three features the
// paper claims for P_{2^k×2^k}: collective-communication freedom, zero tensor
// replication, and phase alignment.
package partition

import (
	"fmt"
	"strings"
)

// Phase identifies one of the three computation phases of training an
// operator (paper §3.1): Forward computes the output, Backward computes the
// input gradient, Gradient computes the weight gradient.
type Phase int

const (
	Forward Phase = iota
	Backward
	Gradient
)

// Phases lists all phases in training order.
var Phases = []Phase{Forward, Backward, Gradient}

func (p Phase) String() string {
	switch p {
	case Forward:
		return "F"
	case Backward:
		return "B"
	case Gradient:
		return "G"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Kind discriminates partition tokens.
type Kind int

const (
	// SplitDim is conventional partition-by-dimension.
	SplitDim Kind = iota
	// Prime is the spatial-temporal primitive P_{2^k×2^k}.
	Prime
)

// Token is one basic partition in a sequence 𝒫.
type Token struct {
	Kind Kind

	// Dim is the operator axis split in two (SplitDim only).
	Dim int

	// K is the order of a Prime token: the device square is 2^K × 2^K
	// and there are 2^K temporal steps (Prime only, K ≥ 1).
	K int

	// MDim, NDim, KDim are the operator axes playing the M, N and K roles
	// of the matmul O[M,K] = Σ_N I[M,N]·W[N,K] (Prime only). They must be
	// three distinct axes.
	MDim, NDim, KDim int
}

// Split returns a SplitDim token for axis dim.
func Split(dim int) Token { return Token{Kind: SplitDim, Dim: dim} }

// NewPrime returns a Prime token of order k over role axes (mDim, nDim, kDim).
func NewPrime(k, mDim, nDim, kDim int) Token {
	return Token{Kind: Prime, K: k, MDim: mDim, NDim: nDim, KDim: kDim}
}

// Bits returns the number of device-ID bits the token consumes.
func (t Token) Bits() int {
	if t.Kind == Prime {
		return 2 * t.K
	}
	return 1
}

// Steps returns the number of temporal steps the token introduces.
func (t Token) Steps() int {
	if t.Kind == Prime {
		return 1 << t.K
	}
	return 1
}

// Seq is a partition sequence 𝒫. Tokens consume device-ID bits left to
// right, token 0 using the most significant bits.
type Seq struct {
	Tokens []Token
}

// NewSeq builds a sequence from tokens.
func NewSeq(tokens ...Token) Seq { return Seq{Tokens: tokens} }

// Bits returns the total number of device-ID bits consumed by the sequence.
func (s Seq) Bits() int {
	n := 0
	for _, t := range s.Tokens {
		n += t.Bits()
	}
	return n
}

// Steps returns the total number of temporal steps: the product of 2^k over
// all Prime tokens (1 if the sequence is purely spatial).
func (s Seq) Steps() int {
	n := 1
	for _, t := range s.Tokens {
		n *= t.Steps()
	}
	return n
}

// HasPrime reports whether the sequence contains a Prime token.
func (s Seq) HasPrime() bool {
	for _, t := range s.Tokens {
		if t.Kind == Prime {
			return true
		}
	}
	return false
}

// NumSlices returns how many slices axis dim is cut into by the sequence.
func (s Seq) NumSlices(dim int) int {
	n := 1
	for _, t := range s.Tokens {
		switch t.Kind {
		case SplitDim:
			if t.Dim == dim {
				n *= 2
			}
		case Prime:
			if t.MDim == dim || t.NDim == dim || t.KDim == dim {
				n <<= t.K
			}
		}
	}
	return n
}

// Validate checks structural validity of the sequence for an operator with
// numDims axes on a machine with nbits device-ID bits.
func (s Seq) Validate(numDims, nbits int) error {
	for i, t := range s.Tokens {
		switch t.Kind {
		case SplitDim:
			if t.Dim < 0 || t.Dim >= numDims {
				return fmt.Errorf("partition: token %d splits axis %d of a %d-axis operator", i, t.Dim, numDims)
			}
		case Prime:
			if t.K < 1 || t.K > nbits/2 {
				// The upper bound also keeps the Bits sum below from
				// overflowing on a hostile order.
				return fmt.Errorf("partition: token %d has Prime order %d, want 1 to %d on %d bits", i, t.K, nbits/2, nbits)
			}
			dims := []int{t.MDim, t.NDim, t.KDim}
			for _, d := range dims {
				if d < 0 || d >= numDims {
					return fmt.Errorf("partition: token %d Prime role axis %d out of range", i, d)
				}
			}
			if t.MDim == t.NDim || t.MDim == t.KDim || t.NDim == t.KDim {
				return fmt.Errorf("partition: token %d Prime role axes must be distinct, got (%d,%d,%d)", i, t.MDim, t.NDim, t.KDim)
			}
		default:
			return fmt.Errorf("partition: token %d has unknown kind %d", i, t.Kind)
		}
	}
	if s.Bits() > nbits {
		return fmt.Errorf("partition: sequence uses %d bits, machine has %d", s.Bits(), nbits)
	}
	return nil
}

// Format renders the sequence in the paper's Fig. 9 notation using the given
// axis names, e.g. "B,N,P2x2".
func (s Seq) Format(dimNames []string) string {
	if len(s.Tokens) == 0 {
		return "∅"
	}
	parts := make([]string, 0, len(s.Tokens))
	for _, t := range s.Tokens {
		if t.Kind == Prime {
			parts = append(parts, fmt.Sprintf("P%dx%d", 1<<t.K, 1<<t.K))
			continue
		}
		if t.Dim < len(dimNames) {
			parts = append(parts, dimNames[t.Dim])
		} else {
			parts = append(parts, fmt.Sprintf("dim%d", t.Dim))
		}
	}
	return strings.Join(parts, ",")
}

// String renders the sequence with generic axis names.
func (s Seq) String() string { return s.Format(nil) }

// Key returns a compact unique encoding of the sequence, suitable as a map
// key for memoisation.
func (s Seq) Key() string {
	var b strings.Builder
	for _, t := range s.Tokens {
		if t.Kind == Prime {
			fmt.Fprintf(&b, "P%d:%d,%d,%d;", t.K, t.MDim, t.NDim, t.KDim)
		} else {
			fmt.Fprintf(&b, "S%d;", t.Dim)
		}
	}
	return b.String()
}

// TemporalTuple decomposes linear step index `step` into the per-Prime-token
// temporal indices, the LAST Prime token varying fastest. The returned slice
// has one entry per token of the sequence (0 for SplitDim tokens).
func (s Seq) TemporalTuple(step int) []int {
	ts := make([]int, len(s.Tokens))
	s.TemporalTupleInto(ts, step)
	return ts
}

// TemporalTupleInto is TemporalTuple writing into ts, one entry per token.
func (s Seq) TemporalTupleInto(ts []int, step int) {
	for i := len(s.Tokens) - 1; i >= 0; i-- {
		n := s.Tokens[i].Steps()
		ts[i] = step % n
		step /= n
	}
}

// mod returns x mod m in [0, m).
func mod(x, m int) int {
	r := x % m
	if r < 0 {
		r += m
	}
	return r
}

// bit extracts d_pos (1-based, d_1 = MSB) from device id dev on a machine
// with nbits ID bits.
func bit(dev, pos, nbits int) int {
	return (dev >> (nbits - pos)) & 1
}

// rc computes the row and column indices of a Prime token of order k whose
// first consumed bit position is `first`: r = Σ 2^(k-1-j)·d_{first+2j},
// c = Σ 2^(k-1-j)·d_{first+2j+1} (Algorithm 1 lines 9–10).
func rc(dev, first, k, nbits int) (r, c int) {
	for j := 0; j < k; j++ {
		r = r<<1 | bit(dev, first+2*j, nbits)
		c = c<<1 | bit(dev, first+2*j+1, nbits)
	}
	return r, c
}

// SliceIndices evaluates the DSIs of every operator axis for phase ph at
// device dev and linear temporal step `step` on a machine with nbits ID bits
// — Algorithm 1 of the paper generalised to arbitrary axes. A negative step
// counts from the end (-1 = last step), matching Eq. 8's t = −1 convention.
func (s Seq) SliceIndices(ph Phase, numDims, nbits, dev, step int) []int {
	if step < 0 {
		step += s.Steps()
	}
	dsi := make([]int, numDims)
	s.SliceIndicesInto(dsi, s.TemporalTuple(step), ph, nbits, dev)
	return dsi
}

// SliceIndicesInto is SliceIndices writing into dsi, one entry per operator
// axis, with the step given as its temporal tuple ts (TemporalTuple). A
// caller sweeping every device at one step computes the tuple once and
// reuses dsi, so the sweep allocates nothing.
func (s Seq) SliceIndicesInto(dsi, ts []int, ph Phase, nbits, dev int) {
	clear(dsi)
	pos := 1
	for i := range s.Tokens {
		tok := &s.Tokens[i]
		switch tok.Kind {
		case SplitDim:
			dsi[tok.Dim] = dsi[tok.Dim]<<1 | bit(dev, pos, nbits)
			pos++
		case Prime:
			base := 1 << tok.K
			r, c := rc(dev, pos, tok.K, nbits)
			t := ts[i]
			var im, in, ik int
			switch ph {
			case Forward: // Eq. 4
				im = mod(r, base)
				in = mod(r+c+t, base)
				ik = mod(c, base)
			case Backward: // Eq. 5
				im = mod(r, base)
				in = mod(r+c-1, base)
				ik = mod(c+t, base)
			case Gradient: // Eq. 6
				delta := 0
				if t == base-1 {
					delta = 1
				}
				im = mod(r+t, base)
				in = mod(r+c-1+delta, base)
				ik = mod(c-1+delta, base)
			}
			dsi[tok.MDim] = dsi[tok.MDim]<<tok.K | im
			dsi[tok.NDim] = dsi[tok.NDim]<<tok.K | in
			dsi[tok.KDim] = dsi[tok.KDim]<<tok.K | ik
			pos += 2 * tok.K
		}
	}
}

// TensorSlice returns the DSI tuple restricted to the axes of a tensor.
func TensorSlice(dsi []int, dims []int) []int {
	out := make([]int, len(dims))
	for i, d := range dims {
		out[i] = dsi[d]
	}
	return out
}

// tupleKey encodes a DSI tuple as a map key.
func tupleKey(t []int) string {
	var b strings.Builder
	for _, v := range t {
		fmt.Fprintf(&b, "%d,", v)
	}
	return b.String()
}

// Holders maps each distinct DSI tuple of a tensor (restricted to axes dims)
// to the list of devices holding that slice at (phase, step). Replicated
// tensors have tuples with more than one holder.
func (s Seq) Holders(ph Phase, dims []int, numDims, nbits, step int) map[string][]int {
	holders := make(map[string][]int)
	for dev := 0; dev < 1<<nbits; dev++ {
		key := tupleKey(TensorSlice(s.SliceIndices(ph, numDims, nbits, dev, step), dims))
		holders[key] = append(holders[key], dev)
	}
	return holders
}

// ReplicationFactor returns how many devices hold each slice of a tensor
// spanning axes dims at (phase, step). Because groups are bit-symmetric the
// factor is uniform across slices; it equals 2^(unused bits + SplitDim bits
// whose axis is outside dims).
func (s Seq) ReplicationFactor(ph Phase, dims []int, numDims, nbits, step int) int {
	holders := s.Holders(ph, dims, numDims, nbits, step)
	max := 1
	for _, hs := range holders {
		if len(hs) > max {
			max = len(hs)
		}
	}
	return max
}

// Transfer is one point-to-point block transfer between consecutive temporal
// steps: device To receives the slice it needs next step from device From.
type Transfer struct {
	From, To int
}

// StepTransfers derives, from the DSI algebra alone, the transfers required
// for a tensor spanning axes dims to advance from step t to step t+1 of
// phase ph (both within the phase). Devices that already hold their next
// block are omitted. When a slice has several holders (replicated tensor),
// the holder with the smallest ID difference to the receiver is chosen.
func (s Seq) StepTransfers(ph Phase, dims []int, numDims, nbits, t int) []Transfer {
	return s.transfersBetween(ph, t, ph, t+1, dims, numDims, nbits)
}

// PhaseTransitionTransfers derives the transfers needed to move a tensor
// from its distribution at the LAST step of phase `from` to the FIRST step
// of phase `to`. For aligned tensors (paper Feature 3) the result is empty.
func (s Seq) PhaseTransitionTransfers(from, to Phase, dims []int, numDims, nbits int) []Transfer {
	return s.transfersBetween(from, s.Steps()-1, to, 0, dims, numDims, nbits)
}

func (s Seq) transfersBetween(ph1 Phase, t1 int, ph2 Phase, t2 int, dims []int, numDims, nbits int) []Transfer {
	holders := s.Holders(ph1, dims, numDims, nbits, t1)
	// Bits NOT touching the tensor's axes define replica groups. For
	// replicated weights any holder has identical content, but for
	// partial-sum accumulators (e.g. dW during the Gradient phase) each
	// replica group accumulates its OWN partial sums — transfers must stay
	// within the receiver's group.
	rm := s.replicaMask(dims, nbits)
	var out []Transfer
	for dev := 0; dev < 1<<nbits; dev++ {
		need := tupleKey(TensorSlice(s.SliceIndices(ph2, numDims, nbits, dev, t2), dims))
		hs := holders[need]
		if len(hs) == 0 {
			// Slice does not exist at the source step (should not happen
			// for well-formed sequences; surface it loudly).
			panic(fmt.Sprintf("partition: no holder for slice %s needed by device %d", need, dev))
		}
		self := false
		best := -1
		for _, h := range hs {
			if h == dev {
				self = true
				break
			}
			if (h^dev)&rm == 0 {
				best = h
			}
		}
		if self {
			continue
		}
		if best == -1 {
			// No same-group holder (cannot happen for well-formed
			// sequences: the group's DSI map is a bijection per step).
			panic(fmt.Sprintf("partition: no same-group holder for slice %s needed by device %d", need, dev))
		}
		out = append(out, Transfer{From: best, To: dev})
	}
	return out
}

// ReplicaBits returns the 1-based device-ID bit positions not consumed by
// tokens touching any of the given axes (including unused trailing bits) —
// the group indicator over which a tensor spanning those axes is replicated
// (e.g. the data-parallel group of a weight tensor).
func (s Seq) ReplicaBits(dims []int, nbits int) []int {
	mask := s.replicaMask(dims, nbits)
	var out []int
	for p := 1; p <= nbits; p++ {
		if mask&(1<<(nbits-p)) != 0 {
			out = append(out, p)
		}
	}
	return out
}

// replicaMask returns the device-ID bit mask of positions NOT consumed by
// tokens touching any of the given axes (including unused trailing bits):
// devices differing only in masked bits hold replicas of the tensor.
func (s Seq) replicaMask(dims []int, nbits int) int {
	inDims := func(d int) bool {
		for _, x := range dims {
			if x == d {
				return true
			}
		}
		return false
	}
	mask := 0
	pos := 1
	for _, tok := range s.Tokens {
		touches := false
		switch tok.Kind {
		case SplitDim:
			touches = inDims(tok.Dim)
		case Prime:
			touches = inDims(tok.MDim) || inDims(tok.NDim) || inDims(tok.KDim)
		}
		if !touches {
			for j := 0; j < tok.Bits(); j++ {
				mask |= 1 << (nbits - (pos + j))
			}
		}
		pos += tok.Bits()
	}
	for p := pos; p <= nbits; p++ {
		mask |= 1 << (nbits - p)
	}
	return mask
}

// Aligned reports whether a tensor spanning axes dims has identical
// distribution at the last step of phase `from` and the first step of phase
// `to` — the alignment requirement of the paper's Feature 3.
func (s Seq) Aligned(from, to Phase, dims []int, numDims, nbits int) bool {
	return len(s.PhaseTransitionTransfers(from, to, dims, numDims, nbits)) == 0
}

// SplitBitsFor returns the device-ID bit positions (1-based) consumed by
// SplitDim tokens on any of the given axes — the all-reduce group indicator
// when those axes are reduced (summed over) in some phase.
func (s Seq) SplitBitsFor(dims []int) []int {
	inDims := func(d int) bool {
		for _, x := range dims {
			if x == d {
				return true
			}
		}
		return false
	}
	var out []int
	pos := 1
	for _, tok := range s.Tokens {
		if tok.Kind == SplitDim && inDims(tok.Dim) {
			out = append(out, pos)
		}
		pos += tok.Bits()
	}
	return out
}

// PrimeBitPositions returns, for each Prime token in order, the bit
// positions it consumes — the ring-communication group indicator of that
// token (paper Fig. 9: "ring communications happen in groups with group
// indicator (d2,d3)").
func (s Seq) PrimeBitPositions() [][]int {
	var out [][]int
	pos := 1
	for _, tok := range s.Tokens {
		if tok.Kind == Prime {
			ps := make([]int, 0, 2*tok.K)
			for j := 0; j < 2*tok.K; j++ {
				ps = append(ps, pos+j)
			}
			out = append(out, ps)
		}
		pos += tok.Bits()
	}
	return out
}

// UnusedBits returns the bit positions not consumed by any token: those bits
// replicate the whole operator (pure redundancy) and the optimizer avoids
// them, but the algebra tolerates them.
func (s Seq) UnusedBits(nbits int) []int {
	var out []int
	for p := s.Bits() + 1; p <= nbits; p++ {
		out = append(out, p)
	}
	return out
}

// CoversReduction verifies the paper's Feature 1 at the algebra level: for
// every device, over the temporal steps of phase ph, the DSI tuple of the
// reduced axes `reduced` must take every value in the cross product of the
// prime-contributed slice counts exactly once — i.e. the partial sums of all
// temporally-distributed slices are accumulated locally, so no all-reduce is
// needed for the prime-partitioned part of the reduction.
func (s Seq) CoversReduction(ph Phase, reduced []int, numDims, nbits int) bool {
	steps := s.Steps()
	for dev := 0; dev < 1<<nbits; dev++ {
		seen := make(map[string]int)
		for t := 0; t < steps; t++ {
			key := tupleKey(TensorSlice(s.SliceIndices(ph, numDims, nbits, dev, t), reduced))
			seen[key]++
		}
		// Every step must contribute a DISTINCT reduced-axes tuple:
		// the device accumulates one partial product per slice locally,
		// never recomputing and never missing one.
		if len(seen) != steps {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
	}
	return true
}
