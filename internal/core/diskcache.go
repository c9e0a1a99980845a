// Disk persistence for SearchCache: a sweep's node evaluations and finished
// plans survive process restarts, so a warm rerun of table2 (or any other
// experiment) evaluates no candidate space, and its identical repeats and
// layer-count changes run no edge build and no DP. Edge matrices are not
// persisted: after a restart the plan tier answers the repeats, which read
// no edge, and the matrices were most of the file (DESIGN.md §5.35). The
// format is a single versioned binary file ("PPSC") whose payload is
// covered by a SHA-256 digest; any mismatch — truncation, corruption, a
// format bump — makes Load return an error and the caller falls back to a
// cold cache. Writes go through a temp file plus rename, so a crashed run
// can never leave a half-written cache behind.
//
// Entries are serialized by their exact byte keys (crosscache.go), which
// already encode every input a cached value depends on — cluster, cost
// model, options, structural signatures. A persisted entry therefore hits
// only under the configuration that produced it, and a hit is bit-identical
// to recomputing: the same seqs, Intra breakdowns, interfaces and plan
// choices flow into the same downstream arithmetic.
//
// File layout (v10):
//
//	"PPSC" · uvarint version · sha256(payload) · payload
//
//	payload    = ifaces · nodes · plans
//	ifaces     = uvarint n · n × (uvarint NumAxes · floats Fwd · floats Bwd · floats Width)
//	nodes      = uvarint n · n × (bytes key · uvarint k · k × seq · k × Intra ·
//	             k × uvarint out ref · k × uvarint in ref)
//	plans      = uvarint n · n × (bytes key · uvarint k · k × uvarint candidate index ·
//	             float64 LayerCost)
//	seq        = uvarint t · t × (kind byte · varint Dim · uvarint K · varint MDim ·
//	             varint NDim · varint KDim)
//	Intra      = 5 × float64 (Compute, RingTotal, StepSum, AllReduce, MemoryBytes)
//	bytes      = uvarint len · len bytes;  floats = uvarint len · len × float64
//
// The payload stores each distinct interface once. The interface table
// holds the distinct cost.Iface contents in first-use order over the sorted
// node keys; an interface reference is 0 for nil and i+1 for table row i,
// and every entry that names a row shares one *cost.Iface after Load
// (interfaces are never written after cost.(*Model).iface builds them).
// Floats are little-endian IEEE-754 bit patterns, so decoding is bit-exact.
//
// Load checks the whole file before it merges anything: the digest, every
// declared length against the unread payload before anything is allocated
// for it, and every interface's shape and reference. So a file that passes
// the digest but was not written by Save still yields an error rather than
// a panic, now or on a later hit. Plan candidate indices point into
// candidate spaces the file does not hold; the search bounds-checks them on
// every use (plancache.go). Likewise a node entry that does not fit the
// search's op and cluster (nodeEntry.fitsOp) is a miss.
//
// The digest is computed on a second goroutine while the calling goroutine
// decodes the payload, and Load merges only after both have passed, so on
// two cores it costs read + max(digest, decode) rather than their sum
// (DESIGN.md §5.27). Decoding bytes that are not verified yet keeps every
// guarantee above: the decoder already treats every payload as hostile and
// checks each declared length against the unread bytes before it allocates
// (FuzzDiskCacheLoad bounds its allocation on arbitrary payloads), and what
// it builds reaches the cache only after the digest matched. A digest
// mismatch (errDigestMismatch) is reported even when the decode failed as
// well; a decode error only behind a matching digest.
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
// (DESIGN.md §5.35), and a v9 file's edges would misparse as plans.
const diskCacheVersion = 10

// errDigestMismatch is Load's error for a payload whose SHA-256 is not the
// one in the header. It takes precedence over any error the decode found.
var errDigestMismatch = errors.New("diskcache: digest mismatch")

// CacheFileName is the file Save writes inside a cache directory.
const CacheFileName = "searchcache.ppsc"

// Save writes the cache to dir/CacheFileName atomically (temp file +
// rename). Concurrent optimizers may keep using the cache; Save holds each
// tier's lock only while snapshotting its map.
func (c *SearchCache) Save(dir string) error {
	payload := encodeCachePayload(c.nodes.snapshot(), c.plans.snapshot())
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

// Load reads dir/CacheFileName into the node and plan tiers, merging with (and never
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
	want := buf[:sha256.Size]
	payload := buf[sha256.Size:]
	// The digest and the decode read the same bytes and do not depend on
	// each other, so the digest runs on a second goroutine. Nothing merges
	// until it matches, and a mismatch wins over any decode error.
	sumc := make(chan [sha256.Size]byte, 1)
	go func() { sumc <- sha256.Sum256(payload) }()
	nodes, plans, err := decodeCachePayload(payload)
	if sum := <-sumc; string(sum[:]) != string(want) {
		return errDigestMismatch
	}
	if err != nil {
		return err
	}
	// Every tier merges through its own cap: a disk cache written under a
	// larger cap (or an accumulation of several runs) must not blow past this
	// process's memory bound just because it arrived via Load.
	c.nodes.merge(nodes)
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

// encodeCachePayload serializes the maps in sorted key order, so equal
// caches produce byte-equal files.
func encodeCachePayload(nodes map[string]*nodeEntry, plans map[string]*cachedPlan) []byte {
	nodeKeys := sortedKeys(nodes)

	// The interface table: one row per distinct content, in first-use
	// order. ref maps every stored pointer to its 1-based row; pointers
	// already shared (a loaded cache) are encoded once.
	ref := make(map[*cost.Iface]uint64)
	rowOf := make(map[string]uint64)
	var table []*cost.Iface
	var scratch []byte
	for _, k := range nodeKeys {
		e := nodes[k]
		for _, ifs := range [2][]*cost.Iface{e.out, e.in} {
			for _, ifc := range ifs {
				if ifc == nil || ref[ifc] != 0 {
					continue
				}
				scratch = appendIface(scratch[:0], ifc)
				row := rowOf[string(scratch)]
				if row == 0 {
					table = append(table, ifc)
					row = uint64(len(table))
					rowOf[string(scratch)] = row
				}
				ref[ifc] = row
			}
		}
	}
	b := binary.AppendUvarint(nil, uint64(len(table)))
	for _, ifc := range table {
		b = appendIface(b, ifc)
	}

	b = binary.AppendUvarint(b, uint64(len(nodeKeys)))
	for _, k := range nodeKeys {
		b = appendBytes(b, []byte(k))
		b = appendNodeEntry(b, nodes[k], ref)
	}
	planKeys := sortedKeys(plans)
	b = binary.AppendUvarint(b, uint64(len(planKeys)))
	for _, k := range planKeys {
		b = appendBytes(b, []byte(k))
		b = appendPlan(b, plans[k])
	}
	return b
}

func decodeCachePayload(b []byte) (map[string]*nodeEntry, map[string]*cachedPlan, error) {
	r := &cacheReader{b: b}
	table := r.ifaceTable()
	// Each count is bounded by the smallest record it can declare: a node
	// is at least a key length and a candidate count.
	nNodes := r.count(2)
	nodes := make(map[string]*nodeEntry)
	for i := 0; i < nNodes && r.err == nil; i++ {
		key := string(r.bytes())
		nodes[key] = r.nodeEntry(table)
	}
	// A plan is at least a key length, an index count and one float.
	nPlans := r.count(2 + 8)
	plans := make(map[string]*cachedPlan)
	for i := 0; i < nPlans && r.err == nil; i++ {
		key := string(r.bytes())
		plans[key] = r.plan()
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	if len(r.b) != 0 {
		return nil, nil, errors.New("diskcache: trailing bytes")
	}
	return nodes, plans, nil
}

func appendBytes(b, s []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFloats(b []byte, fs []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(fs)))
	for _, f := range fs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

func appendIface(b []byte, ifc *cost.Iface) []byte {
	b = binary.AppendUvarint(b, uint64(ifc.NumAxes))
	b = appendFloats(b, ifc.Fwd)
	b = appendFloats(b, ifc.Bwd)
	return appendFloats(b, ifc.Width)
}

// appendNodeEntry writes one entry; out and in hold one interface per
// candidate (evalNode builds them that way), written as table references.
func appendNodeEntry(b []byte, e *nodeEntry, ref map[*cost.Iface]uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(e.seqs)))
	for _, s := range e.seqs {
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
	for _, ic := range e.intra {
		for _, f := range [...]float64{ic.Compute, ic.RingTotal, ic.StepSum, ic.AllReduce, ic.MemoryBytes} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	}
	for _, ifs := range [2][]*cost.Iface{e.out, e.in} {
		for i := range e.seqs {
			b = binary.AppendUvarint(b, ref[ifs[i]])
		}
	}
	return b
}

func appendPlan(b []byte, p *cachedPlan) []byte {
	b = binary.AppendUvarint(b, uint64(len(p.idx)))
	for _, ix := range p.idx {
		b = binary.AppendUvarint(b, uint64(ix))
	}
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(p.layerCost))
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

func (r *cacheReader) floats() []float64 {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = r.float()
	}
	return fs
}

// ifaceTable decodes the interface table; rows must be well-formed
// interfaces, since edge grouping divides by NumAxes and indexes Fwd/Bwd by
// it.
func (r *cacheReader) ifaceTable() []*cost.Iface {
	// A row is at least NumAxes and three list lengths.
	table := make([]*cost.Iface, r.count(4))
	for i := range table {
		numAxes := r.uvarint()
		ifc := &cost.Iface{Fwd: r.floats(), Bwd: r.floats(), Width: r.floats()}
		if r.err != nil {
			return nil
		}
		if numAxes == 0 || numAxes != uint64(len(ifc.Width)) ||
			len(ifc.Fwd) != len(ifc.Bwd) || uint64(len(ifc.Fwd))%numAxes != 0 {
			r.fail("malformed interface")
			return nil
		}
		ifc.NumAxes = int(numAxes)
		table[i] = ifc
	}
	return table
}

func (r *cacheReader) nodeEntry(table []*cost.Iface) *nodeEntry {
	// A candidate is at least a token count and its Intra.
	n := r.count(1 + 5*8)
	if r.err != nil {
		return nil
	}
	e := &nodeEntry{
		seqs:  make([]partition.Seq, n),
		intra: make([]cost.Intra, n),
		out:   make([]*cost.Iface, n),
		in:    make([]*cost.Iface, n),
	}
	for i := range e.seqs {
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
		e.seqs[i] = partition.Seq{Tokens: toks}
	}
	for i := range e.intra {
		e.intra[i] = cost.Intra{
			Compute:     r.float(),
			RingTotal:   r.float(),
			StepSum:     r.float(),
			AllReduce:   r.float(),
			MemoryBytes: r.float(),
		}
	}
	for _, ifs := range [2][]*cost.Iface{e.out, e.in} {
		for i := range ifs {
			switch ref := r.uvarint(); {
			case ref > uint64(len(table)):
				r.fail("interface reference out of range")
			case ref > 0:
				ifs[i] = table[ref-1]
			}
		}
	}
	if r.err != nil {
		return nil
	}
	return e
}

// plan reads one plan entry. Its indices must fit an int32; whether they fit
// a candidate space is checked where the plan is used.
func (r *cacheReader) plan() *cachedPlan {
	p := &cachedPlan{idx: make([]int32, r.count(1))}
	for i := range p.idx {
		ix := r.uvarint()
		if ix > math.MaxInt32 {
			r.fail("plan index out of range")
			return nil
		}
		p.idx[i] = int32(ix)
	}
	p.layerCost = r.float()
	if r.err != nil {
		return nil
	}
	return p
}
