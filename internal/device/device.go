// Package device models the parallel machine PrimePar partitions over:
// 2^n devices, each identified by a bit-vector Device ID
// D = (d_1, ..., d_n) (paper §3.1), organised into nodes with fast
// intra-node links and slower inter-node links (the paper's testbed is
// 8 nodes × 4 V100s: 300 GB/s NVLink inside a node, 100 GB/s InfiniBand
// across nodes).
//
// The package also implements the paper's group-indicator analysis (§4.1,
// Fig. 5): a group indicator is a sub-sequence of device-ID bit positions;
// it partitions the machine into disjoint device groups within which
// collective (all-reduce) or ring communication takes place. Latency models
// for those communications live here too.
//
// Machines need not be the paper's homogeneous two-level testbed: a Profile
// may carry an explicit list of link tiers (NVLink island → node fabric →
// spine), each owning a contiguous range of device-ID bits, and a list of
// compute classes splitting the machine into heterogeneous device kinds
// (A100+V100 mixes). Profiles without those lists resolve to the classic
// intra/inter two-tier machine bit-identically.
package device

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"

	"repro/internal/collective"
)

// Profile holds the hardware coefficients of the latency model. Times are
// seconds, bandwidths bytes/second, sizes bytes. The default V100Profile
// mirrors the paper's evaluation cluster.
type Profile struct {
	Name string

	// FLOPs is the effective sustained device throughput in FLOP/s.
	FLOPs float64
	// MemBW is the device memory (HBM) bandwidth in bytes/s.
	MemBW float64

	// IntraBW and InterBW are per-link bandwidths inside a node and
	// across nodes.
	IntraBW float64
	InterBW float64
	// IntraLatency and InterLatency are fixed per-message latencies.
	IntraLatency float64
	InterLatency float64

	// KernelOverhead is the fixed launch cost added to every computation
	// step (kernel launch + framework dispatch).
	KernelOverhead float64

	// ElementBytes is the width of a tensor element on the wire and in
	// memory (2 for fp16 training).
	ElementBytes float64

	// MemoryCapacity is per-device memory in bytes (informational; the
	// simulator reports occupancy but does not enforce capacity).
	MemoryCapacity float64

	// Collective selects the all-reduce algorithm (collective.Ring by
	// default — the zero value — matching NCCL's large-message behaviour;
	// collective.Auto enables the per-size algorithm switch).
	Collective collective.Algorithm

	// Topology selects the interconnect shape. The default Switch models
	// NVLink islands joined by a node fabric (the paper's testbed);
	// Torus2D models TPU-style per-chip neighbor links, where every ring
	// communication rides a dedicated link (the paper's §7 discussion).
	Topology Topology
	// TorusBW and TorusLatency describe one torus link (Torus2D only).
	TorusBW      float64
	TorusLatency float64

	// Links, when non-empty, describes the switch fabric as an explicit
	// hierarchy of link tiers, innermost first (e.g. NVLink island → node
	// fabric → spine). Each tier owns a contiguous range of low-order
	// device-ID bits; the outermost tier may use Bits = -1 to absorb
	// whatever the cluster size leaves over, so one preset scales across
	// machine sizes. Empty Links derive the classic two-tier machine from
	// IntraBW/InterBW — bit-identically to the pre-tier cost model.
	// Ignored for ring traffic under Torus2D (dedicated neighbor links),
	// but still used for redistribution staging.
	Links []LinkTier

	// Classes, when non-empty, splits the machine into heterogeneous
	// compute classes (e.g. half A100, half V100), dividing the device-ID
	// space into equal contiguous ranges in class order. PrimePar's SPMD
	// partitions give every device an equally sized block, so each step —
	// and every collective waiting on it — is bottlenecked by the slowest
	// class; ComputeTime models exactly that. Empty Classes means the
	// homogeneous FLOPs/MemBW/KernelOverhead device.
	Classes []ComputeClass
}

// LinkTier is one level of a switch-fabric hierarchy: a link kind with its
// α–β coefficients and the contiguous range of device-ID bits it spans.
// Devices differing only inside a tier's bit range (and below) communicate
// over that tier's links.
type LinkTier struct {
	// Name labels the tier ("nvlink", "node-fabric", "spine"). Purely
	// descriptive, but folded into cache signatures.
	Name string
	// Bits is the number of contiguous device-ID bit positions the tier
	// spans, counted upward from the innermost unclaimed bit. In a
	// Profile the OUTERMOST tier may be -1, meaning "all remaining bits".
	Bits int
	// Bandwidth is one link's bandwidth in bytes/second.
	Bandwidth float64
	// Latency is the fixed per-message latency in seconds (α).
	Latency float64
}

// ComputeClass is one homogeneous slice of a heterogeneous machine.
type ComputeClass struct {
	// Name labels the class ("a100", "v100").
	Name string
	// FLOPs is the class's sustained throughput in FLOP/s.
	FLOPs float64
	// MemBW is the class's memory bandwidth in bytes/s.
	MemBW float64
	// KernelOverhead is the class's fixed launch cost in seconds.
	KernelOverhead float64
}

// Topology enumerates interconnect shapes.
type Topology int

const (
	// Switch is the NVLink-within-node / fabric-across-nodes testbed.
	Switch Topology = iota
	// Torus2D gives every device dedicated neighbor links (TPU-style
	// twistable tori, paper §7).
	Torus2D
)

func (t Topology) String() string {
	if t == Torus2D {
		return "torus-2d"
	}
	return "switch"
}

// ParseTopology maps a topology name ("switch", "torus-2d") back to its
// value — the inverse of String, used by the request surfaces.
func ParseTopology(s string) (Topology, error) {
	switch s {
	case "switch":
		return Switch, nil
	case "torus-2d":
		return Torus2D, nil
	}
	return Switch, fmt.Errorf("device: unknown topology %q (want switch or torus-2d)", s)
}

// V100Profile returns a profile modeled after the paper's cluster:
// V100-SXM2 32 GB GPUs, 300 GB/s NVLink intra-node, InfiniBand across
// nodes, fp16 training. The paper quotes "100 GB/s InfiniBand" per node;
// we provision InterBW = 25 GB/s as the effective large-message bandwidth a
// single cross-node stream attains (PCIe staging and protocol overhead),
// with linkFor dividing it further among concurrent cross-node flows
// sharing the NIC. This keeps inter-node collectives roughly 10–50× more
// expensive than NVLink, matching the communication-bound shapes of the
// paper's Figs. 2a and 9.
func V100Profile() Profile {
	return Profile{
		Name:           "v100-cluster",
		FLOPs:          50e12, // effective mixed-precision throughput
		MemBW:          900e9,
		IntraBW:        300e9,
		InterBW:        25e9,
		IntraLatency:   5e-6,
		InterLatency:   15e-6,
		KernelOverhead: 8e-6,
		ElementBytes:   2,
		MemoryCapacity: 32e9,
	}
}

// Cluster describes a machine of NumDevices = 2^n devices packed into nodes
// of DevicesPerNode each. Device IDs are integers 0..NumDevices-1 whose
// binary digits are the paper's (d_1, ..., d_n) with d_1 the most
// significant bit; consequently node(dev) = dev / DevicesPerNode, matching
// the paper's Fig. 9 numbering (GPUs 0–3 form one node on an 8-GPU machine).
//
// links holds the Profile's link hierarchy resolved against THIS machine's
// size (innermost first, bit counts concrete and summing to Bits());
// construct clusters only through NewCluster/MustCluster so it stays
// consistent.
type Cluster struct {
	NumDevices     int
	DevicesPerNode int
	Profile        Profile

	links []LinkTier
}

// MaxDevices is the largest machine NewCluster builds: 1024 devices, the
// largest machine the built-in profiles describe (A100SuperPodProfile). The
// planner's work grows steeply with the device count: estimating one
// OPT-6.7B block search alone takes seconds at 1024 devices and runs out
// of memory at 2048, so larger requests are rejected before any planning.
const MaxDevices = 1024

// NewCluster returns a cluster of numDevices devices grouped into nodes of
// devicesPerNode. Both must be powers of two, numDevices at most MaxDevices,
// and devicesPerNode must divide numDevices (a machine smaller than one node
// is a single partial node). The profile must describe a real machine:
// finite positive compute throughput, memory bandwidth and element width, a
// finite non-negative kernel overhead, and links (derived or explicit) with
// finite positive bandwidth and finite non-negative latency.
func NewCluster(numDevices, devicesPerNode int, p Profile) (*Cluster, error) {
	if numDevices <= 0 || numDevices&(numDevices-1) != 0 {
		return nil, fmt.Errorf("device: NumDevices %d is not a positive power of two", numDevices)
	}
	if numDevices > MaxDevices {
		return nil, fmt.Errorf("device: NumDevices %d exceeds the maximum of %d", numDevices, MaxDevices)
	}
	if devicesPerNode <= 0 || devicesPerNode&(devicesPerNode-1) != 0 {
		return nil, fmt.Errorf("device: DevicesPerNode %d is not a positive power of two", devicesPerNode)
	}
	if devicesPerNode > numDevices {
		devicesPerNode = numDevices
	}
	c := &Cluster{NumDevices: numDevices, DevicesPerNode: devicesPerNode, Profile: p}
	links, err := resolveLinks(c.Bits(), c.NodeBits(), p)
	if err != nil {
		return nil, err
	}
	c.links = links
	if p.Topology == Torus2D {
		if err := checkLink("torus", p.TorusBW, p.TorusLatency); err != nil {
			return nil, err
		}
	}
	if err := checkCompute("profile", p.Name, p.FLOPs, p.MemBW, p.KernelOverhead); err != nil {
		return nil, err
	}
	if !positive(p.ElementBytes) {
		return nil, fmt.Errorf("device: profile %q needs a finite positive ElementBytes, got %v", p.Name, p.ElementBytes)
	}
	for _, cc := range p.Classes {
		if err := checkCompute("compute class", cc.Name, cc.FLOPs, cc.MemBW, cc.KernelOverhead); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// positive reports whether v is finite and positive; nonNegative whether it
// is finite and non-negative. Every comparison with NaN is false, so the
// conditions state what is accepted.
func positive(v float64) bool    { return v > 0 && v <= math.MaxFloat64 }
func nonNegative(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }

// checkCompute rejects a device description (kind "profile" or "compute
// class") whose throughput or memory bandwidth is not finite and positive or
// whose kernel overhead is not finite and non-negative.
func checkCompute(kind, name string, flops, memBW, kernelOverhead float64) error {
	if !positive(flops) || !positive(memBW) {
		return fmt.Errorf("device: %s %q needs finite positive FLOPs and MemBW, got %v and %v", kind, name, flops, memBW)
	}
	if !nonNegative(kernelOverhead) {
		return fmt.Errorf("device: %s %q needs a finite non-negative kernel overhead, got %v", kind, name, kernelOverhead)
	}
	return nil
}

// resolveLinks turns a Profile's link description into the concrete tier
// list for a machine of n ID bits. Empty Profile.Links derives the classic
// two-tier machine (intra-node bits then node bits) from IntraBW/InterBW.
// Explicit Links are consumed innermost-first; a -1 bit count on the
// outermost tier absorbs the remainder. Tiers beyond the machine's bits are
// clamped (a pipeline stage may rebuild a smaller cluster from the same
// profile), and a machine larger than the fixed tiers extends the outermost
// tier — so one Profile describes machines of every size.
func resolveLinks(n, nodeBits int, p Profile) ([]LinkTier, error) {
	if len(p.Links) == 0 {
		tiers := []LinkTier{{Name: "intra-node", Bits: n - nodeBits, Bandwidth: p.IntraBW, Latency: p.IntraLatency}}
		if nodeBits > 0 {
			tiers = append(tiers, LinkTier{Name: "inter-node", Bits: nodeBits, Bandwidth: p.InterBW, Latency: p.InterLatency})
		}
		for _, t := range tiers {
			if err := checkLink(t.Name, t.Bandwidth, t.Latency); err != nil {
				return nil, err
			}
		}
		return tiers, nil
	}
	tiers := make([]LinkTier, 0, len(p.Links))
	remaining := n
	for i, t := range p.Links {
		if err := checkLink(t.Name, t.Bandwidth, t.Latency); err != nil {
			return nil, err
		}
		b := t.Bits
		if b == -1 {
			if i != len(p.Links)-1 {
				return nil, fmt.Errorf("device: only the outermost link tier may span \"remaining\" bits, %q is not last", t.Name)
			}
			b = remaining
		}
		if b < 0 {
			return nil, fmt.Errorf("device: link tier %q has invalid bit count %d", t.Name, t.Bits)
		}
		if b > remaining {
			b = remaining
		}
		tiers = append(tiers, LinkTier{Name: t.Name, Bits: b, Bandwidth: t.Bandwidth, Latency: t.Latency})
		remaining -= b
	}
	if remaining > 0 {
		tiers[len(tiers)-1].Bits += remaining
	}
	return tiers, nil
}

// checkLink rejects a link tier whose bandwidth is not finite and positive or
// whose latency is not finite and non-negative.
func checkLink(name string, bandwidth, latency float64) error {
	if !positive(bandwidth) {
		return fmt.Errorf("device: link tier %q needs a finite positive bandwidth, got %v", name, bandwidth)
	}
	if !nonNegative(latency) {
		return fmt.Errorf("device: link tier %q needs a finite non-negative latency, got %v", name, latency)
	}
	return nil
}

// MustCluster is NewCluster that panics on error, for tests and examples.
func MustCluster(numDevices, devicesPerNode int, p Profile) *Cluster {
	c, err := NewCluster(numDevices, devicesPerNode, p)
	if err != nil {
		panic(err)
	}
	return c
}

// Bits returns n = log2(NumDevices), the number of device-ID bits.
func (c *Cluster) Bits() int { return bits.TrailingZeros(uint(c.NumDevices)) }

// NodeBits returns the number of leading ID bits that select the node.
func (c *Cluster) NodeBits() int {
	return c.Bits() - bits.TrailingZeros(uint(c.DevicesPerNode))
}

// Node returns the node index hosting device dev.
func (c *Cluster) Node(dev int) int { return dev / c.DevicesPerNode }

// NumNodes returns the number of nodes.
func (c *Cluster) NumNodes() int { return (c.NumDevices + c.DevicesPerNode - 1) / c.DevicesPerNode }

// Bit returns d_pos of the device ID, with pos 1-based and d_1 the most
// significant bit (paper convention).
func (c *Cluster) Bit(dev, pos int) int {
	n := c.Bits()
	if pos < 1 || pos > n {
		panic(fmt.Sprintf("device: bit position %d out of range [1,%d]", pos, n))
	}
	return (dev >> (n - pos)) & 1
}

// Indicator is a group indicator (paper §4.1): an ordered set of device-ID
// bit positions (1-based, d_1 = MSB). Devices agreeing on all bits NOT in
// the indicator form one group; the indicator bits vary within the group.
type Indicator []int

// Size returns the number of devices in each group: 2^len(I).
func (ind Indicator) Size() int { return 1 << len(ind) }

// String renders the indicator like "(d1,d3)".
func (ind Indicator) String() string {
	s := "("
	for i, b := range ind {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("d%d", b)
	}
	return s + ")"
}

// Groups enumerates the device groups induced by indicator ind: every
// assignment of the non-indicator bits yields one group, listed with members
// in increasing device order. The union of all groups is the full machine.
func (c *Cluster) Groups(ind Indicator) [][]int {
	n := c.Bits()
	inInd := make([]bool, n+1)
	for _, p := range ind {
		if p < 1 || p > n {
			panic(fmt.Sprintf("device: indicator bit d%d out of range for %d devices", p, c.NumDevices))
		}
		if inInd[p] {
			panic(fmt.Sprintf("device: duplicate indicator bit d%d", p))
		}
		inInd[p] = true
	}
	var fixed []int // bit positions not in the indicator
	for p := 1; p <= n; p++ {
		if !inInd[p] {
			fixed = append(fixed, p)
		}
	}
	numGroups := 1 << len(fixed)
	groupSize := ind.Size()
	groups := make([][]int, 0, numGroups)
	for g := 0; g < numGroups; g++ {
		members := make([]int, 0, groupSize)
		for m := 0; m < groupSize; m++ {
			dev := 0
			for i, p := range fixed {
				if (g>>(len(fixed)-1-i))&1 == 1 {
					dev |= 1 << (n - p)
				}
			}
			for i, p := range ind {
				if (m>>(len(ind)-1-i))&1 == 1 {
					dev |= 1 << (n - p)
				}
			}
			members = append(members, dev)
		}
		groups = append(groups, members)
	}
	return groups
}

// SpansNodes reports whether groups induced by ind contain devices from more
// than one node. By construction every group of a given indicator has the
// same span (groups are bit-translations of each other), so this is a
// property of the indicator alone: it spans nodes iff any indicator bit lies
// in the node field (positions 1..NodeBits).
func (c *Cluster) SpansNodes(ind Indicator) bool {
	nb := c.NodeBits()
	for _, p := range ind {
		if p <= nb {
			return true
		}
	}
	return false
}

// membersPerNode returns how many devices of one group share a node
// (2^(# indicator bits inside the intra-node field)).
func (c *Cluster) membersPerNode(ind Indicator) int {
	nb := c.NodeBits()
	m := 1
	for _, p := range ind {
		if p > nb {
			m *= 2
		}
	}
	return m
}

// Tiers returns the Profile's link hierarchy resolved against this
// machine's size: innermost first, concrete bit counts summing to Bits().
func (c *Cluster) Tiers() []LinkTier {
	out := make([]LinkTier, len(c.links))
	copy(out, c.links)
	return out
}

// IntraLink returns the innermost tier's coefficients — the link two
// devices in the same smallest island share (NVLink on the testbed).
func (c *Cluster) IntraLink() (bw, lat float64) {
	t := c.links[0]
	return t.Bandwidth, t.Latency
}

// InterLink returns the outermost tier's coefficients — the slowest link in
// the machine (the node fabric on the two-tier testbed, the spine on a
// superpod). On a single-tier machine it equals IntraLink.
func (c *Cluster) InterLink() (bw, lat float64) {
	t := c.links[len(c.links)-1]
	return t.Bandwidth, t.Latency
}

// tierAtDepth maps a 0-based bit depth (0 = least-significant ID bit) to
// the index of the tier owning it.
func (c *Cluster) tierAtDepth(depth int) int {
	cum := 0
	for i, t := range c.links {
		cum += t.Bits
		if depth < cum {
			return i
		}
	}
	return len(c.links) - 1
}

// bottleneckTier returns the index of the outermost (slowest) tier any
// indicator bit reaches — the link class every group of ind must cross.
// Indicator positions are 1-based with d_1 the MSB, so position p sits at
// depth Bits()-p.
func (c *Cluster) bottleneckTier(ind Indicator) int {
	n := c.Bits()
	tier := 0
	for _, p := range ind {
		if t := c.tierAtDepth(n - p); t > tier {
			tier = t
		}
	}
	return tier
}

// flowsThrough counts the concurrent flows of indicator ind's groups that
// funnel through one island's single uplink at tier t: the island below the
// tier holds 2^(bits below t) devices, of which the group contributes
// 2^(# indicator bits inside the island) members sharing one flow each.
// For the two-tier machine this is the classic NIC-sharing count
// DevicesPerNode / membersPerNode.
func (c *Cluster) flowsThrough(t int, ind Indicator) int {
	if t == 0 {
		return 1 // innermost links are dedicated per pair; no uplink to share
	}
	below := 0
	for _, tier := range c.links[:t] {
		below += tier.Bits
	}
	n := c.Bits()
	members := 0
	for _, p := range ind {
		if n-p < below {
			members++
		}
	}
	flows := 1 << (below - members)
	if flows < 1 {
		flows = 1
	}
	return flows
}

// linkFor returns the bandwidth and latency of the bottleneck link used by
// groups of indicator ind, accounting for uplink sharing: when a group
// spans islands at tier t, all groups with members inside an island funnel
// their cross-island traffic through that island's single uplink, dividing
// the tier bandwidth by the number of concurrent flows. On the two-tier
// machine this reduces exactly to the paper-testbed NIC-sharing model.
func (c *Cluster) linkFor(ind Indicator) (bw, lat float64) {
	p := c.Profile
	if p.Topology == Torus2D {
		// Every device owns its neighbor links; groups never contend.
		return p.TorusBW, p.TorusLatency
	}
	t := c.bottleneckTier(ind)
	tier := c.links[t]
	return tier.Bandwidth / float64(c.flowsThrough(t, ind)), tier.Latency
}

// A100Profile models a newer-generation GPU node (A100-SXM-80GB-like):
// ~6× the compute of the V100 profile but only ~2× the interconnect,
// making training MORE communication-bound — the hardware trend the paper's
// introduction argues will widen tensor-partitioning's impact.
func A100Profile() Profile {
	return Profile{
		Name:           "a100-cluster",
		FLOPs:          300e12,
		MemBW:          2000e9,
		IntraBW:        600e9,
		InterBW:        50e9,
		IntraLatency:   4e-6,
		InterLatency:   12e-6,
		KernelOverhead: 6e-6,
		ElementBytes:   2,
		MemoryCapacity: 80e9,
	}
}

// TPUv4Profile models a TPU-v4-style pod slice: strong per-chip compute and
// a 2-D torus of dedicated inter-chip links where PrimePar's ring
// communications map one-to-one onto hardware links (paper §7).
func TPUv4Profile() Profile {
	return Profile{
		Name:           "tpuv4-torus",
		FLOPs:          150e12,
		MemBW:          1200e9,
		IntraBW:        50e9, // redistribution staging still rides these under Torus2D
		InterBW:        50e9,
		IntraLatency:   2e-6,
		InterLatency:   2e-6,
		KernelOverhead: 5e-6,
		ElementBytes:   2,
		MemoryCapacity: 32e9,
		Topology:       Torus2D,
		TorusBW:        50e9,
		TorusLatency:   2e-6,
	}
}

// MixedA100V100Profile models a heterogeneous expansion cluster: half the
// devices (the low ID range) are A100-class, half (the high range) V100-class,
// on the V100 testbed's interconnect. PrimePar's SPMD partitions hand every
// device the same block, so each step runs at V100 speed while memory
// capacity and link budget stay the testbed's — the "mixed fleet" scenario
// Galvatron-style hybrid search treats as a first-class input.
func MixedA100V100Profile() Profile {
	p := V100Profile()
	p.Name = "mixed-a100-v100"
	p.Classes = []ComputeClass{
		{Name: "a100", FLOPs: 300e12, MemBW: 2000e9, KernelOverhead: 6e-6},
		{Name: "v100", FLOPs: 50e12, MemBW: 900e9, KernelOverhead: 8e-6},
	}
	return p
}

// A100SuperPodProfile models a SuperPOD-style three-tier fabric: NVLink
// islands of 4 GPUs, a per-node fabric joining two islands, and an
// oversubscribed spine above the nodes. The spine tier's -1 bit count
// absorbs however many ID bits the cluster size leaves, so the same profile
// describes 8-GPU and 1024-GPU machines.
func A100SuperPodProfile() Profile {
	p := A100Profile()
	p.Name = "a100-superpod"
	p.Links = []LinkTier{
		{Name: "nvlink", Bits: 2, Bandwidth: 600e9, Latency: 4e-6},
		{Name: "node-fabric", Bits: 1, Bandwidth: 100e9, Latency: 8e-6},
		{Name: "spine", Bits: -1, Bandwidth: 25e9, Latency: 12e-6},
	}
	return p
}

// Profiles returns the named machine presets, in a stable order.
func Profiles() []Profile {
	return []Profile{
		V100Profile(),
		A100Profile(),
		TPUv4Profile(),
		MixedA100V100Profile(),
		A100SuperPodProfile(),
	}
}

// ProfileNames returns the preset names Profiles offers, in the same order.
func ProfileNames() []string {
	ps := Profiles()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// ProfileByName resolves a preset name ("v100-cluster", "a100-cluster",
// "tpuv4-torus", "mixed-a100-v100", "a100-superpod") to its Profile.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("device: unknown profile %q (have %s)",
		name, strings.Join(ProfileNames(), ", "))
}

// LinkTierFromWidth builds a tier from an island width in devices (the
// request-surface encoding): devices must be a power of two ≥ 2, or -1 on
// the outermost tier for "all remaining devices".
func LinkTierFromWidth(name string, devices int, bandwidth, latency float64) (LinkTier, error) {
	t := LinkTier{Name: name, Bandwidth: bandwidth, Latency: latency}
	if devices == -1 {
		t.Bits = -1
		return t, nil
	}
	if devices < 2 || devices&(devices-1) != 0 {
		return LinkTier{}, fmt.Errorf("device: link tier %q width %d is not a power of two ≥ 2 (or -1 for the remainder)", name, devices)
	}
	t.Bits = bits.TrailingZeros(uint(devices))
	return t, nil
}

// ParseLinksSpec parses the CLI encoding of a custom link hierarchy:
// comma-separated tiers of name:width:bandwidth:latency, innermost first,
// width in devices per island ("rest" or -1 on the last tier absorbs the
// remainder). Example:
//
//	nvlink:4:300e9:5e-6,fabric:rest:25e9:15e-6
func ParseLinksSpec(spec string) ([]LinkTier, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("device: empty links spec")
	}
	var tiers []LinkTier
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 4 {
			return nil, fmt.Errorf("device: link tier %q: want name:width:bandwidth:latency", part)
		}
		name := strings.TrimSpace(fields[0])
		width := -1
		if w := strings.TrimSpace(fields[1]); w != "rest" {
			n, err := strconv.Atoi(w)
			if err != nil {
				return nil, fmt.Errorf("device: link tier %q: width %q is neither an integer nor \"rest\"", name, w)
			}
			width = n
		}
		bw, err := strconv.ParseFloat(strings.TrimSpace(fields[2]), 64)
		if err != nil {
			return nil, fmt.Errorf("device: link tier %q: bad bandwidth: %v", name, err)
		}
		lat, err := strconv.ParseFloat(strings.TrimSpace(fields[3]), 64)
		if err != nil {
			return nil, fmt.Errorf("device: link tier %q: bad latency: %v", name, err)
		}
		if err := checkLink(name, bw, lat); err != nil {
			return nil, err
		}
		t, err := LinkTierFromWidth(name, width, bw, lat)
		if err != nil {
			return nil, err
		}
		tiers = append(tiers, t)
	}
	return tiers, nil
}

// AllReduceTime models the latency of an all-reduce of `bytes` bytes within
// each group of indicator ind (all groups run concurrently; the returned
// value is the slowest, which by symmetry is any of them). The algorithm is
// Profile.Collective — ring by default:
//
//	t = 2(g-1)/g · bytes / bw + 2(g-1) · latency
//
// A group of size 1 costs nothing.
func (c *Cluster) AllReduceTime(ind Indicator, bytes float64) float64 {
	g := ind.Size()
	if g <= 1 {
		return 0
	}
	bw, lat := c.linkFor(ind)
	return collective.AllReduce(c.Profile.Collective, g, bytes, collective.Link{Bandwidth: bw, Latency: lat})
}

// ReduceScatterTime models a ring reduce-scatter (half of an all-reduce).
func (c *Cluster) ReduceScatterTime(ind Indicator, bytes float64) float64 {
	bw, lat := c.linkFor(ind)
	return collective.ReduceScatter(ind.Size(), bytes, collective.Link{Bandwidth: bw, Latency: lat})
}

// AllGatherTime models a ring all-gather (the other half).
func (c *Cluster) AllGatherTime(ind Indicator, bytes float64) float64 {
	bw, lat := c.linkFor(ind)
	return collective.AllGather(ind.Size(), bytes, collective.Link{Bandwidth: bw, Latency: lat})
}

// RingStepTime models one temporal step of P_{2^k×2^k} ring point-to-point
// communication: every device in a group concurrently sends `bytes` bytes to
// a ring neighbor. The bottleneck is the slowest link used by the ring.
func (c *Cluster) RingStepTime(ind Indicator, bytes float64) float64 {
	if len(ind) == 0 || bytes == 0 {
		return 0
	}
	bw, lat := c.linkFor(ind)
	return bytes/bw + lat
}

// P2PTime models a single point-to-point transfer of `bytes` bytes between
// two specific devices, over the outermost tier separating them (the
// highest differing ID bit names the smallest island containing both).
func (c *Cluster) P2PTime(src, dst int, bytes float64) float64 {
	if src == dst || bytes == 0 {
		return 0
	}
	p := c.Profile
	if p.Topology == Torus2D {
		return bytes/p.TorusBW + p.TorusLatency
	}
	tier := c.links[c.tierAtDepth(bits.Len(uint(src^dst))-1)]
	return bytes/tier.Bandwidth + tier.Latency
}

// ComputeTime models the latency of a computation step as a linear function
// of floating point operations and memory traffic (paper §4.1):
//
//	t = flops/FLOPs + bytes/MemBW + KernelOverhead.
//
// On a heterogeneous machine (Profile.Classes) every device executes the
// same-shaped block (SPMD partitioning), so a step finishes — and any
// collective gated on it starts — when the SLOWEST class finishes; the
// returned time is the max over classes.
func (c *Cluster) ComputeTime(flops, bytes float64) float64 {
	p := c.Profile
	if flops == 0 && bytes == 0 {
		return 0
	}
	if len(p.Classes) == 0 {
		return flops/p.FLOPs + bytes/p.MemBW + p.KernelOverhead
	}
	worst := 0.0
	for _, cc := range p.Classes {
		if t := flops/cc.FLOPs + bytes/cc.MemBW + cc.KernelOverhead; t > worst {
			worst = t
		}
	}
	return worst
}
