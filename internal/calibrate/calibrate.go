// Package calibrate reproduces the paper's cost-model calibration
// methodology (§4.1): profile the real system's latency at several sizes,
// then least-squares-fit linear coefficients per communication pattern and
// operator type. Here the discrete-event simulator's hardware model plays
// the "real system" being profiled (see DESIGN.md §1); the package proves
// the pipeline end to end — including on noisy measurements — and exposes
// the fitted models the optimizer could consume in place of the analytic
// ones.
package calibrate

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/device"
)

// Fit is a least-squares linear model y = Slope·x + Intercept.
type Fit struct {
	Slope     float64
	Intercept float64
	// R2 is the coefficient of determination of the fit.
	R2 float64
}

// Predict evaluates the fitted model.
func (f Fit) Predict(x float64) float64 { return float64(f.Slope*x) + f.Intercept }

// LinearFit computes the ordinary-least-squares line through (xs, ys).
func LinearFit(xs, ys []float64) (Fit, error) {
	n := float64(len(xs))
	if len(xs) != len(ys) || len(xs) < 2 {
		return Fit{}, fmt.Errorf("calibrate: need ≥2 paired samples, got %d/%d", len(xs), len(ys))
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += float64(xs[i] * xs[i])
		sxy += float64(xs[i] * ys[i])
	}
	den := float64(n*sxx) - float64(sx*sx)
	if den == 0 {
		return Fit{}, fmt.Errorf("calibrate: degenerate x samples")
	}
	slope := (float64(n*sxy) - float64(sx*sy)) / den
	intercept := (sy - float64(slope*sx)) / n

	mean := sy / n
	var ssTot, ssRes float64
	for i := range xs {
		ssTot += float64((ys[i] - mean) * (ys[i] - mean))
		pred := float64(slope*xs[i]) + intercept
		ssRes += float64((ys[i] - pred) * (ys[i] - pred))
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Fit{Slope: slope, Intercept: intercept, R2: r2}, nil
}

// Noise perturbs measurements multiplicatively to emulate real profiling
// jitter: y' = y·(1 + amp·u), u ∈ [−1, 1), deterministic per seed.
type Noise struct {
	Amp  float64
	Seed int64
}

func (n Noise) apply(ys []float64) []float64 {
	if n.Amp == 0 {
		return ys
	}
	rng := rand.New(rand.NewSource(n.Seed))
	out := make([]float64, len(ys))
	for i, y := range ys {
		u := float64(rng.Float64())
		out[i] = y * (1 + float64(n.Amp*(float64(u*2)-1)))
	}
	return out
}

// ProfileAllReduce profiles all-reduce latency for one group indicator at
// the given payload sizes (bytes) and fits the linear model the paper's
// Fig. 5 machinery requires — one model per grouping pattern.
func ProfileAllReduce(c *device.Cluster, ind device.Indicator, sizes []float64, noise Noise) (Fit, error) {
	ys := make([]float64, len(sizes))
	for i, s := range sizes {
		ys[i] = c.AllReduceTime(ind, s)
	}
	return LinearFit(sizes, noise.apply(ys))
}

// ProfileRing profiles one ring-communication step per payload size.
func ProfileRing(c *device.Cluster, ind device.Indicator, sizes []float64, noise Noise) (Fit, error) {
	ys := make([]float64, len(sizes))
	for i, s := range sizes {
		ys[i] = c.RingStepTime(ind, s)
	}
	return LinearFit(sizes, noise.apply(ys))
}

// ProfileCompute profiles kernel latency against FLOPs at a fixed
// bytes-per-flop ratio (operator-type specific, as in the paper).
func ProfileCompute(c *device.Cluster, bytesPerFlop float64, flops []float64, noise Noise) (Fit, error) {
	ys := make([]float64, len(flops))
	for i, f := range flops {
		ys[i] = c.ComputeTime(f, f*bytesPerFlop)
	}
	return LinearFit(flops, noise.apply(ys))
}

// IndicatorClass captures what makes two group indicators latency-
// equivalent on a machine: group size, node span, and NIC sharing degree.
// The paper's scalability argument (§4.1) is that profiling is needed only
// once per class, not once per indicator or per device.
type IndicatorClass struct {
	GroupSize  int
	SpansNodes bool
	// IntraMembers is how many group members share one node.
	IntraMembers int
}

// ClassOf computes the latency class of an indicator on cluster c.
func ClassOf(c *device.Cluster, ind device.Indicator) IndicatorClass {
	nb := c.NodeBits()
	intra := 1
	for _, p := range ind {
		if p > nb {
			intra *= 2
		}
	}
	return IndicatorClass{
		GroupSize:    ind.Size(),
		SpansNodes:   c.SpansNodes(ind),
		IntraMembers: intra,
	}
}

// DistinctClasses enumerates every indicator over the machine's bits and
// returns the set of distinct latency classes — the number of profiling
// campaigns actually required.
func DistinctClasses(c *device.Cluster) []IndicatorClass {
	n := c.Bits()
	seen := map[IndicatorClass]bool{}
	var out []IndicatorClass
	for mask := 0; mask < 1<<n; mask++ {
		var ind device.Indicator
		for p := 1; p <= n; p++ {
			if mask&(1<<(p-1)) != 0 {
				ind = append(ind, p)
			}
		}
		cl := ClassOf(c, ind)
		if !seen[cl] {
			seen[cl] = true
			out = append(out, cl)
		}
	}
	return out
}

// PlaneFit fits y = A·x1 + B·x2 + C by ordinary least squares — the
// two-regressor model the paper uses for computation latency (FLOPs and
// memory traffic).
type PlaneFit struct {
	A, B, C float64
	R2      float64
}

// Predict evaluates the fitted plane.
func (p PlaneFit) Predict(x1, x2 float64) float64 { return float64(p.A*x1) + float64(p.B*x2) + p.C }

// minor is the 2×2 determinant a·b − c·d, and expand the cofactor
// expansion a·m1 − b·m2 + c·m3. Every product is rounded on its own (an
// explicit conversion), so no target fuses them into a multiply-add.
func minor(a, b, c, d float64) float64 { return float64(a*b) - float64(c*d) }

func expand(a, m1, b, m2, c, m3 float64) float64 {
	return float64(a*m1) - float64(b*m2) + float64(c*m3)
}

// FitPlane solves the 3×3 normal equations for (A, B, C).
func FitPlane(x1, x2, ys []float64) (PlaneFit, error) {
	n := len(ys)
	if len(x1) != n || len(x2) != n || n < 3 {
		return PlaneFit{}, fmt.Errorf("calibrate: need ≥3 paired samples")
	}
	// Normal equations: Mᵀ M θ = Mᵀ y with rows (x1, x2, 1).
	var s11, s12, s1, s22, s2, sn float64
	var t1, t2, t0 float64
	for i := 0; i < n; i++ {
		s11 += float64(x1[i] * x1[i])
		s12 += float64(x1[i] * x2[i])
		s22 += float64(x2[i] * x2[i])
		s1 += x1[i]
		s2 += x2[i]
		t1 += float64(x1[i] * ys[i])
		t2 += float64(x2[i] * ys[i])
		t0 += ys[i]
	}
	sn = float64(n)
	// Solve the symmetric 3×3 system by Cramer's rule.
	det := expand(s11, minor(s22, sn, s2, s2), s12, minor(s12, sn, s2, s1), s1, minor(s12, s2, s22, s1))
	if math.Abs(det) < 1e-30 {
		return PlaneFit{}, fmt.Errorf("calibrate: degenerate design matrix")
	}
	detA := expand(t1, minor(s22, sn, s2, s2), s12, minor(t2, sn, s2, t0), s1, minor(t2, s2, s22, t0))
	detB := expand(s11, minor(t2, sn, s2, t0), t1, minor(s12, sn, s2, s1), s1, minor(s12, t0, t2, s1))
	detC := expand(s11, minor(s22, t0, t2, s2), s12, minor(s12, t0, t2, s1), t1, minor(s12, s2, s22, s1))
	f := PlaneFit{A: detA / det, B: detB / det, C: detC / det}

	mean := t0 / sn
	var ssTot, ssRes float64
	for i := 0; i < n; i++ {
		ssTot += float64((ys[i] - mean) * (ys[i] - mean))
		d := ys[i] - f.Predict(x1[i], x2[i])
		ssRes += float64(d * d)
	}
	f.R2 = 1
	if ssTot > 0 {
		f.R2 = 1 - ssRes/ssTot
	}
	return f, nil
}

// Book is a complete set of fitted latency models for one cluster — the
// artifact the paper's profiling campaign produces. Lookups are by
// indicator latency class, so profiling cost scales with the (small) class
// count, not the device count.
type Book struct {
	AllReduce map[IndicatorClass]Fit
	Ring      map[IndicatorClass]Fit
	Compute   PlaneFit
}

// Profile runs the full calibration campaign against the cluster model
// (standing in for the real system) and returns the fitted Book.
func Profile(c *device.Cluster, noise Noise) (*Book, error) {
	book := &Book{
		AllReduce: map[IndicatorClass]Fit{},
		Ring:      map[IndicatorClass]Fit{},
	}
	sizes := Sizes(1e4, 1e9, 16)
	n := c.Bits()
	for mask := 0; mask < 1<<n; mask++ {
		var ind device.Indicator
		for p := 1; p <= n; p++ {
			if mask&(1<<(p-1)) != 0 {
				ind = append(ind, p)
			}
		}
		if len(ind) == 0 {
			continue
		}
		cl := ClassOf(c, ind)
		if _, ok := book.AllReduce[cl]; ok {
			continue
		}
		ar, err := ProfileAllReduce(c, ind, sizes, noise)
		if err != nil {
			return nil, err
		}
		ring, err := ProfileRing(c, ind, sizes, noise)
		if err != nil {
			return nil, err
		}
		book.AllReduce[cl] = ar
		book.Ring[cl] = ring
	}
	// Compute plane: sample a grid of (flops, bytes).
	var fs, bs, ys []float64
	for _, f := range Sizes(1e9, 1e14, 8) {
		for _, b := range Sizes(1e6, 1e10, 5) {
			fs = append(fs, f)
			bs = append(bs, b)
			ys = append(ys, c.ComputeTime(f, b))
		}
	}
	noisyYs := noise.apply(ys)
	plane, err := FitPlane(fs, bs, noisyYs)
	if err != nil {
		return nil, err
	}
	book.Compute = plane
	return book, nil
}

// AllReduceTime predicts via the fitted models (class lookup).
func (b *Book) AllReduceTime(c *device.Cluster, ind device.Indicator, bytes float64) float64 {
	if len(ind) == 0 || bytes <= 0 {
		return 0
	}
	f, ok := b.AllReduce[ClassOf(c, ind)]
	if !ok {
		return c.AllReduceTime(ind, bytes)
	}
	return f.Predict(bytes)
}

// RingStepTime predicts one ring step via the fitted models.
func (b *Book) RingStepTime(c *device.Cluster, ind device.Indicator, bytes float64) float64 {
	if len(ind) == 0 || bytes <= 0 {
		return 0
	}
	f, ok := b.Ring[ClassOf(c, ind)]
	if !ok {
		return c.RingStepTime(ind, bytes)
	}
	return f.Predict(bytes)
}

// ComputeTime predicts kernel latency via the fitted plane.
func (b *Book) ComputeTime(flops, bytes float64) float64 {
	if flops == 0 && bytes == 0 {
		return 0
	}
	return b.Compute.Predict(flops, bytes)
}

// Sizes returns a default geometric sweep of payload sizes for profiling.
func Sizes(min, max float64, points int) []float64 {
	if points < 2 {
		return []float64{min}
	}
	ratio := math.Pow(max/min, 1/float64(points-1))
	out := make([]float64, points)
	v := min
	for i := range out {
		out[i] = v
		v *= ratio
	}
	return out
}
