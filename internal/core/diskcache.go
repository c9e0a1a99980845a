// Disk persistence for SearchCache: a sweep's finished plans survive
// process restarts, so a warm rerun of table2 (or any other experiment)
// answers each identical repeat and layer-count change with no node pass,
// edge build or DP. Only the plan tier is persisted: a plan entry carries
// its answer (plancache.go), so no request served from the file reads a
// node entry or an edge matrix, and those were all but 40 KB of the file
// (DESIGN.md §5.36). The format is a single versioned binary file ("PPSC")
// whose payload is covered by a SHA-256 digest; any mismatch — truncation,
// corruption, a format bump — makes Load return an error and the caller
// falls back to a cold cache. Writes go through a temp file plus rename, so
// a crashed run can never leave a half-written cache behind.
//
// Entries are serialized by their exact byte keys (crosscache.go), which
// already encode every input a cached answer depends on — cluster, cost
// model, options, α and the whole graph signature. A persisted entry
// therefore hits only under the configuration that produced it, and a hit
// is bit-identical to recomputing: the same seqs, Intra breakdowns and
// LayerCost bits flow into the same Strategy assembly (strategyOf).
//
// File layout (v13):
//
//	"PPSC" · uvarint version · sha256(payload) · payload
//
//	payload    = plans
//	plans      = uvarint n · n × (bytes key · uvarint k · k × seq · k × Intra ·
//	             k × uvarint space size · float64 LayerCost · byte stackable)
//	seq        = uvarint t · t × (kind byte · varint Dim · uvarint K · varint MDim ·
//	             varint NDim · varint KDim)
//	Intra      = 5 × float64 (Compute, RingTotal, StepSum, AllReduce, MemoryBytes)
//	bytes      = uvarint len · len bytes
//
// Floats are little-endian IEEE-754 bit patterns, so decoding is bit-exact.
//
// Load verifies the digest before it decodes anything, then checks every
// declared length against the unread payload before anything is allocated
// for it, every space size against int32 and every stackable byte, and
// merges only a payload that decoded whole. So a file that passes the
// digest but was not written by Save still yields an error rather than a
// panic. Whether a plan fits the graph it is looked up for (its node count
// and every sequence against its op and cluster) is checked on every use
// (cachedPlan.fits).
package core

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/cost"
	"repro/internal/partition"
)

// diskCacheMagic identifies a PrimePar search-cache file.
const diskCacheMagic = "PPSC"

// diskCacheVersion is bumped on any encoding change; old files then fail to
// load and the run proceeds cold. v2: edge cross keys grew a dominance flag
// byte (crosscache.go), so v1 keys would never hit and could in principle
// alias. v3: a third payload section persists the cross-scale overlap tier
// (gone since v7), so a restarted sweep re-derives no pattern-pair cells
// even at device counts it never ran before. v4: the environment prefix of
// every key grew link-tier and compute-class sections (heterogeneous
// profiles), so a v3 key written before those sections existed could alias
// a tiered cluster's key. v5: distinct interfaces are stored once in a table
// that node entries reference, and matrix and overlap cells are
// dictionary-coded; the benchmark daemon's restart file shrank from 389 MB
// to 45 MB. v6: edge cross keys lost the dominance section (flag byte,
// interior-position flags and full endpoint signatures) when the dominance
// pre-filter was deleted; a v5 edge key parsed under the v6 layout could
// name a different edge. v7: the overlaps section is gone with the
// cross-scale overlap tier; a v6 file's overlaps would read as trailing
// bytes. v8: a plans section persists the plan tier, so a restarted daemon
// answers each cell's first identical repeat without rebuilding its segment
// tables. v9: a plan is one periodic layer, so plan keys lost the layer
// count and two reserved bytes, and plan entries their TotalCost; a v8
// plans section would misparse under the v9 layout. v10: the edges section
// is gone; after a restart no request the plan tier misses read it
// (DESIGN.md §5.35), and a v9 file's edges would misparse as plans. v11: the
// interface table and nodes section are gone and a plan entry carries its
// answer (seqs, Intra breakdowns, space sizes, a stackable byte) instead of
// candidate indices (DESIGN.md §5.36); a v10 file's interface table would
// misparse as plans. v12: the environment prefix lost its AllowPrime byte
// (DESIGN.md §5.41), so a v11 key could alias a v12 one. v13: every segment
// is a left-to-right chain merged in segment order (DESIGN.md §5.43), which
// moves the last ulp of some LayerCosts; a v12 plan entry would serve the
// old association's value.
const diskCacheVersion = 13

// errDigestMismatch is Load's error for a payload whose SHA-256 is not the
// one in the header. Load checks it before decoding.
var errDigestMismatch = errors.New("diskcache: digest mismatch")

// CacheFileName is the file Save writes inside a cache directory.
const CacheFileName = "searchcache.ppsc"

// Save writes the cache to dir/CacheFileName atomically (temp file +
// rename). Concurrent optimizers may keep using the cache; Save holds the
// plan tier's lock only while snapshotting its map.
func (c *SearchCache) Save(dir string) error {
	payload := encodeCachePayload(c.plans.snapshot())
	sum := sha256.Sum256(payload)
	header := append([]byte(diskCacheMagic), binary.AppendUvarint(nil, diskCacheVersion)...)
	header = append(header, sum[:]...)

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, CacheFileName+".tmp*")
	if err != nil {
		return err
	}
	// Header and payload go out as two writes: joining them would hold a
	// second full-size copy of the file in memory.
	for _, part := range [][]byte{header, payload} {
		if _, err := tmp.Write(part); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, CacheFileName)); err != nil {
		// The rename can fail even after a clean write (target replaced by
		// a directory, permission change); without cleanup every failed
		// Save would strand a full-size temp file in the cache directory.
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Load reads dir/CacheFileName into the plan tier, merging with (and never
// overwriting) entries already present. Any structural problem — missing
// file, wrong magic or version, digest mismatch, truncated or inconsistent
// payload — returns an error and leaves the cache unchanged, so callers can
// always fall back to a cold start.
func (c *SearchCache) Load(dir string) error {
	buf, err := os.ReadFile(filepath.Join(dir, CacheFileName))
	if err != nil {
		return err
	}
	if len(buf) < len(diskCacheMagic) || string(buf[:len(diskCacheMagic)]) != diskCacheMagic {
		return errors.New("diskcache: bad magic")
	}
	buf = buf[len(diskCacheMagic):]
	ver, n := binary.Uvarint(buf)
	if n <= 0 || ver != diskCacheVersion {
		return fmt.Errorf("diskcache: unsupported version %d", ver)
	}
	buf = buf[n:]
	if len(buf) < sha256.Size {
		return errors.New("diskcache: truncated header")
	}
	payload := buf[sha256.Size:]
	if sum := sha256.Sum256(payload); string(sum[:]) != string(buf[:sha256.Size]) {
		return errDigestMismatch
	}
	plans, err := decodeCachePayload(payload)
	if err != nil {
		return err
	}
	// The tier merges through its own cap: a disk cache written under a
	// larger cap (or an accumulation of several runs) must not blow past this
	// process's memory bound just because it arrived via Load.
	c.plans.merge(plans)
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// encodeCachePayload serializes the plans in sorted key order, so equal
// caches produce byte-equal files.
func encodeCachePayload(plans map[string]*cachedPlan) []byte {
	keys := sortedKeys(plans)
	b := binary.AppendUvarint(nil, uint64(len(keys)))
	for _, k := range keys {
		b = appendBytes(b, []byte(k))
		b = appendPlan(b, plans[k])
	}
	return b
}

func decodeCachePayload(b []byte) (map[string]*cachedPlan, error) {
	r := &cacheReader{b: b}
	// A plan is at least a key length, a node count, one float and the
	// stackable byte.
	nPlans := r.count(2 + 8 + 1)
	plans := make(map[string]*cachedPlan)
	for i := 0; i < nPlans && r.err == nil; i++ {
		key := string(r.bytes())
		plans[key] = r.plan()
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, errors.New("diskcache: trailing bytes")
	}
	return plans, nil
}

func appendBytes(b, s []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendPlan(b []byte, p *cachedPlan) []byte {
	b = binary.AppendUvarint(b, uint64(len(p.seqs)))
	for _, s := range p.seqs {
		b = binary.AppendUvarint(b, uint64(len(s.Tokens)))
		for _, t := range s.Tokens {
			b = append(b, byte(t.Kind))
			b = binary.AppendVarint(b, int64(t.Dim))
			b = binary.AppendUvarint(b, uint64(t.K))
			b = binary.AppendVarint(b, int64(t.MDim))
			b = binary.AppendVarint(b, int64(t.NDim))
			b = binary.AppendVarint(b, int64(t.KDim))
		}
	}
	for _, ic := range p.intra {
		for _, f := range [...]float64{ic.Compute, ic.RingTotal, ic.StepSum, ic.AllReduce, ic.MemoryBytes} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	}
	for _, n := range p.sizes {
		b = binary.AppendUvarint(b, uint64(n))
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.layerCost))
	return append(b, boolByte(p.stackable))
}

// cacheReader decodes the payload with sticky error handling: after the
// first malformed field every accessor returns zero values and the caller
// checks err once.
type cacheReader struct {
	b   []byte
	err error
}

func (r *cacheReader) fail(what string) {
	if r.err == nil {
		r.err = errors.New("diskcache: " + what)
	}
}

func (r *cacheReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated payload")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *cacheReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("truncated payload")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads a declared element count and fails unless the unread payload
// can hold that many elements of at least minBytes each, so nothing sized
// from a count ever outgrows the file.
func (r *cacheReader) count(minBytes int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minBytes) {
		r.fail("declared length exceeds payload")
		return 0
	}
	return int(n)
}

func (r *cacheReader) byteVal() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.fail("truncated payload")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *cacheReader) float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail("truncated payload")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

func (r *cacheReader) bytes() []byte {
	n := r.count(1)
	if r.err != nil {
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// plan reads one plan entry. Its space sizes must fit an int32 and its
// stackable byte must be 0 or 1; whether its sequences fit a graph is
// checked where the plan is used (cachedPlan.fits).
func (r *cacheReader) plan() *cachedPlan {
	// A node is at least a token count, its Intra and its space size.
	n := r.count(1 + 5*8 + 1)
	if r.err != nil {
		return nil
	}
	p := &cachedPlan{
		seqs:  make([]partition.Seq, n),
		intra: make([]cost.Intra, n),
		sizes: make([]int32, n),
	}
	for i := range p.seqs {
		// A token is a kind byte and five varints.
		nt := r.count(6)
		if r.err != nil {
			return nil
		}
		toks := make([]partition.Token, nt)
		for j := range toks {
			toks[j] = partition.Token{
				Kind: partition.Kind(r.byteVal()),
				Dim:  int(r.varint()),
				K:    int(r.uvarint()),
				MDim: int(r.varint()),
				NDim: int(r.varint()),
				KDim: int(r.varint()),
			}
		}
		p.seqs[i] = partition.Seq{Tokens: toks}
	}
	for i := range p.intra {
		p.intra[i] = cost.Intra{
			Compute:     r.float(),
			RingTotal:   r.float(),
			StepSum:     r.float(),
			AllReduce:   r.float(),
			MemoryBytes: r.float(),
		}
	}
	for i := range p.sizes {
		size := r.uvarint()
		if size > math.MaxInt32 {
			r.fail("space size out of range")
			return nil
		}
		p.sizes[i] = int32(size)
	}
	p.layerCost = r.float()
	switch r.byteVal() {
	case 0:
	case 1:
		p.stackable = true
	default:
		r.fail("malformed stackable flag")
	}
	if r.err != nil {
		return nil
	}
	return p
}
