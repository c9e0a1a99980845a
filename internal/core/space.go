// Candidate partition-space enumeration: every operator's space is the set
// of partition sequences that consume exactly the machine's device-ID bits,
// composed of SplitDim tokens on splittable axes and Prime tokens on
// matmul-role axes (paper §3). This is the per-operator space P whose size
// drives the optimizer's O(P³) complexity (paper §5.3).
package core

import (
	"repro/internal/graph"
	"repro/internal/partition"
)

// Options configures the optimizer and its search space.
type Options struct {
	// MaxPrimeK caps the Prime order (P_{2×2} has k=1, P_{4×4} k=2, ...).
	MaxPrimeK int

	// AllowPrime enables the spatial-temporal primitive. Disabling it
	// restricts the space to conventional partition-by-dimension — the
	// strongest spatial-only baseline (≈ Alpa's intra-op space).
	AllowPrime bool

	// AllowBatchSplit permits splitting batch axes. The paper disables it
	// when composing with explicit data parallelism in 3D configurations
	// (§6.4) so that d is controlled externally.
	AllowBatchSplit bool

	// Parallelism is the worker count for DP and edge-matrix loops
	// (0 = GOMAXPROCS).
	Parallelism int

	// Beam, when positive, prunes each node's candidate space to the Beam
	// cheapest sequences by intra-operator cost before the DP runs. The
	// search becomes approximate but scales to machines where the full
	// O(P³) is impractical (128+ devices). Zero-cost placeholder nodes
	// keep their full space, and the layer head/tail keep IDENTICAL
	// candidate sets so layer stacking stays sound.
	Beam int

	// DisableCache switches the search to its reference mode: the
	// op-signature memo, the edge-matrix cache and the table-driven edge
	// evaluator are all bypassed, and every candidate and matrix cell is
	// evaluated from scratch. The result must be bit-identical to the
	// cached search (the equivalence tests assert exactly that); the mode
	// exists as the oracle those tests compare against.
	DisableCache bool
}

// SerialUncached returns the options with caching disabled and parallelism
// pinned to one worker — the slow deterministic reference configuration the
// equivalence tests compare the production search against.
func (o Options) SerialUncached() Options {
	o.DisableCache = true
	o.Parallelism = 1
	return o
}

// DefaultOptions returns the options used throughout the evaluation.
func DefaultOptions() Options {
	return Options{MaxPrimeK: 2, AllowPrime: true, AllowBatchSplit: true}
}

// isBatchAxis reports whether the axis represents the data-parallel batch.
func isBatchAxis(op *graph.Op, ax int) bool { return op.Axes[ax].Name == "B" }

// Candidates enumerates every valid partition sequence for op using AT MOST
// nbits device bits — unused trailing bits replicate the operator, which is
// how Megatron-style replicated norms/residuals are expressed — respecting
// axis splittability, axis sizes (never more slices than elements) and the
// option gates.
func Candidates(op *graph.Op, nbits int, opts Options) []partition.Seq {
	var out []partition.Seq
	slices := make([]int, len(op.Axes))
	for i := range slices {
		slices[i] = 1
	}
	var rec func(toks []partition.Token, remaining int)
	rec = func(toks []partition.Token, remaining int) {
		// Every prefix is itself a candidate (trailing bits replicate).
		out = append(out, partition.NewSeq(append([]partition.Token(nil), toks...)...))
		if remaining == 0 {
			return
		}
		for ax := range op.Axes {
			if !op.Axes[ax].Splittable {
				continue
			}
			if !opts.AllowBatchSplit && isBatchAxis(op, ax) {
				continue
			}
			if slices[ax]*2 > op.Axes[ax].Size {
				continue
			}
			slices[ax] *= 2
			rec(append(toks, partition.Split(ax)), remaining-1)
			slices[ax] /= 2
		}
		if opts.AllowPrime && op.PrimeApplicable() {
			for k := 1; k <= opts.MaxPrimeK && 2*k <= remaining; k++ {
				grow := 1 << k
				if slices[op.PrimeM]*grow > op.Axes[op.PrimeM].Size ||
					slices[op.PrimeN]*grow > op.Axes[op.PrimeN].Size ||
					slices[op.PrimeK]*grow > op.Axes[op.PrimeK].Size {
					continue
				}
				slices[op.PrimeM] *= grow
				slices[op.PrimeN] *= grow
				slices[op.PrimeK] *= grow
				rec(append(toks, partition.NewPrime(k, op.PrimeM, op.PrimeN, op.PrimeK)), remaining-2*k)
				slices[op.PrimeM] /= grow
				slices[op.PrimeN] /= grow
				slices[op.PrimeK] /= grow
			}
		}
	}
	rec(nil, nbits)
	return out
}

// SpaceSize returns |Candidates(op, nbits, opts)|, the paper's |P|. It
// materialises the sequences to count them; its one production caller is
// EstimatePlan, for node slots the cross-call cache does not hold.
func SpaceSize(op *graph.Op, nbits int, opts Options) int {
	return len(Candidates(op, nbits, opts))
}
