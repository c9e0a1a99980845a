// Candidate partition-space enumeration: every operator's space is the set
// of partition sequences that consume exactly the machine's device-ID bits,
// composed of SplitDim tokens on splittable axes and Prime tokens on
// matmul-role axes (paper §3). This is the per-operator space P whose size
// drives the optimizer's O(P³) complexity (paper §5.3). A restricted search,
// such as the spatial-only (Alpa-like) baseline, is not a second space: it
// masks this one (PlanRequest.Keep, DESIGN.md §5.41).
package core

import (
	"repro/internal/graph"
	"repro/internal/partition"
)

// Options configures the optimizer and its search space.
type Options struct {
	// MaxPrimeK caps the Prime order (P_{2×2} has k=1, P_{4×4} k=2, ...).
	MaxPrimeK int

	// AllowBatchSplit permits splitting batch axes. The paper disables it
	// when composing with explicit data parallelism in 3D configurations
	// (§6.4) so that d is controlled externally.
	AllowBatchSplit bool

	// Parallelism is the worker count for DP and edge-matrix loops
	// (0 = GOMAXPROCS).
	Parallelism int
}

// DefaultOptions returns the options used throughout the evaluation.
func DefaultOptions() Options {
	return Options{MaxPrimeK: 2, AllowBatchSplit: true}
}

// isBatchAxis reports whether the axis represents the data-parallel batch.
func isBatchAxis(op *graph.Op, ax int) bool { return op.Axes[ax].Name == "B" }

// Candidates enumerates every valid partition sequence for op using AT MOST
// nbits device bits — unused trailing bits replicate the operator, which is
// how Megatron-style replicated norms/residuals are expressed — respecting
// axis splittability, axis sizes (never more slices than elements), the
// batch-split gate and the Prime order cap.
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
		if op.PrimeApplicable() {
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
