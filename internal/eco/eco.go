// Package eco memoizes per-site P_sensitized results across netlist edits —
// the incremental (ECO, "engineering change order") re-estimation layer
// behind the paper's rank → harden → re-estimate loop. After an edit (a TMR
// transform, a gate swap, a rewire), only the sites whose observation cones
// intersect the changed region are recomputed; every other site's value is
// restored from the cache, and the assembled Report is byte-identical to a
// cold full recomputation.
//
// # Keying: content-addressed cones
//
// A cached value is keyed by the pair
//
//	(request key, cone hash of the site)
//
// where the request key digests every result-affecting option that is not
// circuit structure (engine, frames, vectors, seed, rules, BDD budget,
// latch parameters — the same fields as engine.Request.Fingerprint minus
// the circuit content and the SP vector), and the cone hash is a SHA-256
// digest of the site's full observation-cone closure: every node whose
// content can influence the site's P_sensitized value, under the requested
// frame count.
//
// Invalidation is therefore implicit, by content addressing: an edited
// circuit yields new cone hashes for exactly the sites whose closures
// changed, so a stale value can never be looked up — its key no longer
// exists. The explicit differ (ChangedSites) is derived from the same
// hashes; it exists for observability (how many cones did this edit touch?)
// and for the fuzz harness that cross-checks the soundness argument below,
// not for correctness.
//
// # Soundness argument
//
// The cache is sound iff equal cone hashes imply equal P_sensitized values
// (for the same request key). The hash is built so that equality of hashes
// implies equality of everything the engine actually reads, and it comes in
// two flavors because the engine classes read different closures:
//
//  1. Backward closure — structural flavor (ConeHashes; sampling and exact
//     engines). A per-node support digest D is computed in f topological
//     sweeps (f = frames): sources digest their identity and kind, gates
//     digest (ID, kind, D of each fanin in declaration order), and a
//     flip-flop at sweep k digests its D-fanin's support from sweep k−1 —
//     so D bounds flip-flop crossings at f−1, exactly the reach of an
//     f-frame analysis, and handles sequential feedback loops by
//     construction (the iteration is over sweeps, not paths). D(n)
//     determines the good-simulation value distribution at n (a pure
//     function of the backward structure and the per-source seeded
//     streams; see the sampling clause below) and the exact engines'
//     enumeration/BDD function of n. base(n) = (D(n), is-PO, is-observed).
//  2. Backward closure — analytic flavor (AnalyticConeHashes; the EPP
//     engines). An EPP engine never reads a cone member's deep backward
//     structure: propagation through member m consumes only m's identity,
//     kind and the numeric signal probabilities of m and of
//     m's fanins (the side inputs that gate propagation). base(m) therefore
//     digests exactly (ID, kind, is-PO, is-observed, SP bits of m, and per
//     fanin its SP bits in slot order) — with the SP values as IEEE-754
//     bit patterns, so "equal" means the engine's arithmetic sees literally
//     identical inputs. A fanin's identity is digested only through its SP
//     value: rewiring a side input to a driver with bit-identical SP (the
//     voter of a TMR'd balanced gate) changes nothing the engine reads, so
//     it memo-hits. (The residual ambiguity — a pure slot permutation of
//     two fanins with bit-equal SPs — is value-preserving for every kind in
//     the netlist model, all of which are symmetric; no edit the toolchain
//     produces permutes slots.) This is the flavor that makes ECO incremental in
//     practice: a TMR voter shifts deep structure everywhere downstream,
//     but only the sites whose cones see a changed SP or changed wiring are
//     invalidated. (Any structurally-unchanged cone is also
//     analytically-unchanged — SP is a function of backward structure —
//     so the analytic flavor is strictly tighter.)
//  3. Forward closure — both flavors. The cone hash is computed in f
//     reverse-topological sweeps U_r, r = 0..f−1 (r = remaining flip-flop
//     crossings): U_r(n) folds base(n) with U_r of every combinational
//     consumer (in fanout-CSR order, which pins the engine's cone discovery
//     order) and — when r > 0 — U_{r−1} of every flip-flop consumer. The
//     site's hash is U_{f−1}(site). Equal hashes therefore pin, for every
//     node reachable from the site within the frame budget, the full base
//     tuple of the flavor in use.
//  4. Engine independence of everything else. Every engine computes a
//     site's value from exactly its flavor's closure: EPP propagates
//     four-valued states over the forward cone using the digested SPs and
//     folds per-output miss products in canonical ascending output-ID
//     order (output IDs are in the analytic base, the observability bits
//     select them); the sampling kernels replay the site's cone
//     against good values determined by the cone inputs' backward
//     supports; the exact engines enumerate or build BDDs over the cone's
//     input support. All are packing-invariant and worker-invariant (the
//     repository's standing bit-exactness contracts), so skipping memo-hit
//     sites cannot perturb the recomputed ones.
//
// Two deliberate conservatisms keep the argument simple: node IDs are part
// of every digest, so a hit additionally requires the edit to preserve IDs
// (the harden.TMR transform does — originals keep their IDs, new gates are
// appended); and base(n) always includes the single-frame observability
// bit, which can only split hash classes, never merge them. Conservatism
// costs hits, never correctness.
//
// For the sampling engines one extra clause is required: vector streams are
// drawn per (seed, word, source) with sources enumerated in ascending ID
// over the whole circuit, so inserting or removing any source shifts the
// draws of every later source. The engine layer therefore folds a digest of
// the full ordered source-ID list into the sampling request key
// (engine.Request memo key), invalidating all sampling entries on any
// source-set change; and the word-major shared-good-sim kernel prices a
// sweep by words, not sites, so the monte-carlo engine reuses the cache
// all-or-nothing (a full-circuit hit skips the sweep; any miss recomputes
// every site).
//
// The cache itself stores float64 results as IEEE-754 bit patterns
// (math.Float64bits), both in memory and on disk, so restored values are
// bit-identical to computed ones — the same discipline as internal/resume.
package eco

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/resume"
	"repro/internal/sigprob"
)

// Hash is a SHA-256 cone digest.
type Hash [32]byte

// ConeHashes computes the per-site observation-cone digest of every node of
// c under an analysis of the given frame count (frames < 1 is treated as
// 1). Two sites with equal digests — in the same or in different circuits —
// have identical observation-cone closures, so every engine computes
// identical P_sensitized values for them under the same request key. See
// the package documentation for the construction and soundness argument.
// Cost: frames backward plus frames forward O(edges) SHA-256 sweeps.
func ConeHashes(c *netlist.Circuit, frames int) []Hash {
	if frames < 1 {
		frames = 1
	}
	d := newDigester()
	return d.upSweep(c, frames, d.structuralBase(c, frames))
}

// AnalyticConeHashes computes the tighter analytic-flavor cone digests (see
// the package soundness argument, clause 2) for the EPP engines: the
// backward closure of each cone member collapses to its own and its fanins'
// signal-probability bit patterns instead of the full structural support.
// sp must be the request's signal-probability vector — for the standing
// ECO eligibility contract, the default topological vector under nil source
// bias, which is a pure function of the circuit. Two sites with equal
// analytic digests have EPP values that are bit-identical under the same
// request key. Every structurally-unchanged site (ConeHashes) is also
// analytically unchanged, never the converse.
func AnalyticConeHashes(c *netlist.Circuit, frames int, sp []float64) []Hash {
	if frames < 1 {
		frames = 1
	}
	if len(sp) != c.N() {
		panic(fmt.Sprintf("eco: AnalyticConeHashes: sp length %d for a %d-node circuit", len(sp), c.N()))
	}
	d := newDigester()
	return d.upSweep(c, frames, d.analyticBase(c, sp))
}

// digester bundles one reusable SHA-256 state with its write helpers.
type digester struct {
	h   hash.Hash
	buf [8]byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) wInt(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}
func (d *digester) wHash(p *Hash) { d.h.Write(p[:]) }
func (d *digester) sum(out *Hash) {
	d.h.Sum(out[:0]) // appends the 32 digest bytes in place
	d.h.Reset()
}

// structuralBase computes base(n) = (D(n), is-PO, is-observed) with D the
// f-sweep backward support digest: flip-flops chain into the previous sweep
// so crossings are bounded at frames-1 (sweep 1 digests a flip-flop as
// opaque initial state).
func (d *digester) structuralBase(c *netlist.Circuit, frames int) []Hash {
	n := c.N()
	kinds := c.Kinds()
	topo := c.Topo()
	faninIdx, faninArr := c.FaninCSR()

	down := make([]Hash, n)
	prev := make([]Hash, n)
	for k := 1; k <= frames; k++ {
		down, prev = prev, down
		for _, id := range topo {
			kind := kinds[id]
			switch {
			case kind == logic.DFF:
				if k == 1 || faninIdx[id] == faninIdx[id+1] {
					d.wInt(int64('F'))
					d.wInt(int64(id))
					d.wInt(int64(kind))
				} else {
					d.wInt(int64('f'))
					d.wInt(int64(id))
					d.wInt(int64(kind))
					d.wHash(&prev[faninArr[faninIdx[id]]])
				}
			case kind.IsSource():
				d.wInt(int64('s'))
				d.wInt(int64(id))
				d.wInt(int64(kind))
			default:
				d.wInt(int64('g'))
				d.wInt(int64(id))
				d.wInt(int64(kind))
				fanins := faninArr[faninIdx[id]:faninIdx[id+1]]
				d.wInt(int64(len(fanins)))
				for _, f := range fanins {
					d.wHash(&down[f])
				}
			}
			d.sum(&down[id])
		}
	}

	base := make([]Hash, n)
	for id := 0; id < n; id++ {
		d.wInt(int64('b'))
		d.wHash(&down[id])
		d.wInt(obsBits(c, netlist.ID(id)))
		d.sum(&base[id])
	}
	return base
}

// analyticBase computes the EPP-flavor base(n): identity, kind,
// observability, the node's own SP bits, and per fanin (in declaration
// order) its SP bits — exactly the inputs the EPP rules and the
// level-ordered output fold consume for this member. The fanin's ID is
// deliberately absent: the engine reads a side input only as a numeric
// probability, so rewiring a fanin to a different driver with a
// bit-identical SP (the TMR voter of a balanced gate) must memo-hit, not
// invalidate the member's entire backward cone. Which fanins are inside
// the cone — and the cone's shape and fold order — is pinned by the
// forward edge folds of upSweep, not here. Frame depth never enters the
// backward side: the SP vector is static across frames.
func (d *digester) analyticBase(c *netlist.Circuit, sp []float64) []Hash {
	n := c.N()
	kinds := c.Kinds()
	faninIdx, faninArr := c.FaninCSR()

	base := make([]Hash, n)
	for id := 0; id < n; id++ {
		d.wInt(int64('B'))
		d.wInt(int64(id))
		d.wInt(int64(kinds[id]))
		d.wInt(obsBits(c, netlist.ID(id)))
		d.wInt(int64(math.Float64bits(sp[id])))
		if kinds[id] == logic.DFF {
			// A flip-flop's D cone never enters its own forward value: the
			// capture probability is computed at the D driver (a cone member
			// in its own right), and the relaunch reads only sp of the
			// flip-flop itself, a source constant. Digesting the D fanin here
			// would spuriously invalidate the flip-flop site whenever its
			// driver cone changes.
			d.wInt(int64('F'))
		} else {
			fanins := faninArr[faninIdx[id]:faninIdx[id+1]]
			d.wInt(int64(len(fanins)))
			for _, f := range fanins {
				d.wInt(int64(math.Float64bits(sp[f])))
			}
		}
		d.sum(&base[id])
	}
	return base
}

// obsBits packs the is-PO and is-observed flags into one digest word.
func obsBits(c *netlist.Circuit, id netlist.ID) int64 {
	v := int64(0)
	if c.Nodes[id].IsPO {
		v |= 1
	}
	if c.IsObserved(id) {
		v |= 2
	}
	return v
}

// upSweep computes the forward cone digests over the given per-node base:
// frames reverse-topological sweeps, layered by remaining flip-flop
// crossings. U_r folds the node's base with U_r of combinational consumers
// and, when crossings remain, U_{r-1} of flip-flop consumers (the
// relaunched propagation from the captured state). Edges into flip-flops at
// r == 0 are dropped: with no frames left, a capture is never observed.
//
// Combinational levels deliberately never enter the digest. Every engine's
// value is a pure function of the cone's dataflow graph (levels only
// schedule the sweeps — any topological order computes the same floats),
// and the one order-sensitive reduction, the EPP per-output miss product,
// is folded in canonical ascending output-ID order by both epp engines
// (see core.Analyzer.EPP). An edit that re-levels a cone without changing
// its dataflow — a TMR voter inserted upstream adds two logic levels
// across its entire fanout — therefore must not invalidate it.
func (d *digester) upSweep(c *netlist.Circuit, frames int, base []Hash) []Hash {
	n := c.N()
	kinds := c.Kinds()
	topo := c.Topo()
	fanoutIdx, fanoutArr := c.FanoutCSR()

	var upPrev []Hash
	up := make([]Hash, n)
	for r := 0; r < frames; r++ {
		if r > 0 {
			upPrev = up
			up = make([]Hash, n)
		}
		for i := len(topo) - 1; i >= 0; i-- {
			id := topo[i]
			d.wInt(int64('u'))
			d.wHash(&base[id])
			fanouts := fanoutArr[fanoutIdx[id]:fanoutIdx[id+1]]
			for _, o := range fanouts {
				if kinds[o] == logic.DFF {
					if r > 0 {
						d.wInt(int64('x')) // crossing marker
						d.wHash(&upPrev[o])
					}
					continue
				}
				d.wInt(int64('c')) // combinational consumer edge
				d.wHash(&up[o])
			}
			d.sum(&up[id])
		}
	}
	return up
}

// ChangedSites compares the cone hashes of an edited circuit against its
// base and returns, ascending, every node ID of edited whose P_sensitized
// value may differ from the same ID in base under a frames-frame analysis:
// sites whose cone digest changed, plus all IDs new to edited. The
// complement is the reuse guarantee — a site not returned has an identical
// observation-cone closure in both circuits, so every engine computes an
// identical value for it (see the package soundness argument). This is the
// netlist differ behind the cache's observability counters and the fuzz
// harness; the cache itself never consults it (invalidation is implicit in
// the content-addressed keys).
func ChangedSites(base, edited *netlist.Circuit, frames int) []netlist.ID {
	return diffHashes(ConeHashes(base, frames), ConeHashes(edited, frames))
}

// AnalyticChangedSites is ChangedSites under the analytic (EPP) flavor —
// the set the epp engines actually re-sweep after the edit. Both circuits
// are hashed against their own default topological signal probabilities
// (the ECO eligibility contract). Always a subset of ChangedSites plus the
// new IDs.
func AnalyticChangedSites(base, edited *netlist.Circuit, frames int) []netlist.ID {
	return diffHashes(
		AnalyticConeHashes(base, frames, sigprob.Topological(base, sigprob.Config{})),
		AnalyticConeHashes(edited, frames, sigprob.Topological(edited, sigprob.Config{})),
	)
}

func diffHashes(oldH, newH []Hash) []netlist.ID {
	var out []netlist.ID
	for id := range newH {
		if id >= len(oldH) || newH[id] != oldH[id] {
			out = append(out, netlist.ID(id))
		}
	}
	return out
}

// Cache is the per-site result memo: request key → cone hash → IEEE-754
// value bits. The zero value is not usable; create with NewCache (process
// memory only) or Open (directory-backed, persisted by Flush). A Cache is
// safe for concurrent use by any number of requests and is meant to be
// shared — across the edit iterations of one optimizer run, across
// requests of one daemon, across processes via the directory.
type Cache struct {
	dir string // "" = memory only

	mu    sync.Mutex
	reqs  map[string]*reqEntry
	cones map[coneKey][]Hash
}

// coneKey identifies a memoized cone-hash computation. For the analytic
// flavor, sp digests the request's signal-probability vector, so a caller
// violating the topological-SP contract can only miss, never alias.
type coneKey struct {
	circuit string // netlist.Circuit.ContentHash
	frames  int
	flavor  byte // 's' structural, 'a' analytic
	sp      Hash // analytic flavor only: SHA-256 of the SP bit patterns
}

// reqEntry holds one request key's value map and its persistence state.
type reqEntry struct {
	vals   map[Hash]uint64 // cone hash → math.Float64bits of the result
	loaded bool            // disk file consulted (Open caches only)
	dirty  bool            // has entries not yet flushed
}

// NewCache returns an in-memory cache: results survive across runs within
// the process (the interactive optimizer loop) but are not persisted.
func NewCache() *Cache {
	return &Cache{reqs: map[string]*reqEntry{}, cones: map[coneKey][]Hash{}}
}

// Open returns a directory-backed cache: each request key's entries live in
// <dir>/<key>.eco, written atomically by Flush and loaded lazily on first
// lookup. A missing, torn or checksum-failing file is treated as empty — a
// miss is always safe — and overwritten by the next Flush. The directory is
// created if needed.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("eco: Open with an empty directory (use NewCache for a memory-only cache)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("eco: %w", err)
	}
	c := NewCache()
	c.dir = dir
	return c, nil
}

// Hashes returns the structural-flavor cone hashes of c under frames,
// memoized by the circuit's content hash so repeated requests against one
// netlist pay the sweeps once. The returned slice is shared; callers must
// not modify it.
func (ca *Cache) Hashes(c *netlist.Circuit, frames int) []Hash {
	if frames < 1 {
		frames = 1
	}
	k := coneKey{circuit: c.ContentHash(), frames: frames, flavor: 's'}
	return ca.cone(k, func() []Hash { return ConeHashes(c, frames) })
}

// AnalyticHashes is Hashes under the analytic (EPP) flavor, memoized by the
// circuit's content hash plus a digest of the SP vector's bit patterns.
func (ca *Cache) AnalyticHashes(c *netlist.Circuit, frames int, sp []float64) []Hash {
	if frames < 1 {
		frames = 1
	}
	k := coneKey{circuit: c.ContentHash(), frames: frames, flavor: 'a', sp: spDigest(sp)}
	return ca.cone(k, func() []Hash { return AnalyticConeHashes(c, frames, sp) })
}

func spDigest(sp []float64) Hash {
	h := sha256.New()
	var buf [8]byte
	for _, v := range sp {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

func (ca *Cache) cone(k coneKey, compute func() []Hash) []Hash {
	ca.mu.Lock()
	h, ok := ca.cones[k]
	ca.mu.Unlock()
	if ok {
		return h
	}
	h = compute()
	ca.mu.Lock()
	ca.cones[k] = h
	ca.mu.Unlock()
	return h
}

// Lookup restores every cached value for the request key into out (indexed
// by site ID, parallel to hashes) and returns the hit ranges, ascending and
// disjoint, plus the total hit count. Entries of out outside the returned
// ranges are left untouched.
func (ca *Cache) Lookup(key string, hashes []Hash, out []float64) ([]resume.Range, int) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	e := ca.entry(key)
	var (
		ranges []resume.Range
		hits   int
		open   = false
		lo     = 0
	)
	for id, h := range hashes {
		bits, ok := e.vals[h]
		if ok {
			out[id] = math.Float64frombits(bits)
			hits++
			if !open {
				open, lo = true, id
			}
			continue
		}
		if open {
			ranges = append(ranges, resume.Range{Lo: lo, Hi: id})
			open = false
		}
	}
	if open {
		ranges = append(ranges, resume.Range{Lo: lo, Hi: len(hashes)})
	}
	return ranges, hits
}

// Store records the computed values of the given sites under the request
// key: out[id] is the value of site id (out is indexed by site ID, parallel
// to hashes, as in Lookup), and sites may come in any order — a sweep
// commits each batch by its site list. Safe to call concurrently from
// sweep workers.
func (ca *Cache) Store(key string, hashes []Hash, sites []netlist.ID, out []float64) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	e := ca.entry(key)
	for _, id := range sites {
		e.vals[hashes[id]] = math.Float64bits(out[id])
	}
	e.dirty = true
}

// entry returns the request key's map, loading the directory file on first
// touch. Caller holds ca.mu.
func (ca *Cache) entry(key string) *reqEntry {
	e := ca.reqs[key]
	if e == nil {
		e = &reqEntry{vals: map[Hash]uint64{}}
		ca.reqs[key] = e
	}
	if ca.dir != "" && !e.loaded {
		e.loaded = true
		loadFile(filepath.Join(ca.dir, key+".eco"), e.vals)
	}
	return e
}

// Flush persists every dirty request key to the directory (atomic
// temp+rename per file). A memory-only cache flushes trivially. Keys are
// written in sorted order so the write sequence is deterministic.
func (ca *Cache) Flush() error {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	if ca.dir == "" {
		//serlint:allow detrange commutative flag reset, no output is produced
		for _, e := range ca.reqs {
			e.dirty = false
		}
		return nil
	}
	keys := make([]string, 0, len(ca.reqs))
	//serlint:allow detrange collect-then-sort: keys are sorted before any write
	for k, e := range ca.reqs {
		if e.dirty {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := ca.reqs[k]
		if err := writeFile(filepath.Join(ca.dir, k+".eco"), e.vals); err != nil {
			return err
		}
		e.dirty = false
	}
	return nil
}

// Len reports how many values are cached under the request key (loading the
// directory file if needed) — an observability hook for tests and stats.
func (ca *Cache) Len(key string) int {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	return len(ca.entry(key).vals)
}

// File format: "SERECO1\n", uint64 LE record count, then count records of
// 32-byte cone hash + 8-byte LE value bits sorted by hash, then the SHA-256
// of everything before it. Any deviation — short file, bad magic, checksum
// mismatch — makes the loader treat the file as empty: for a memo cache a
// miss is always sound, so unlike internal/resume there is nothing to
// quarantine.

var ecoMagic = []byte("SERECO1\n")

// loadFile merges a cache file's records into vals; on any corruption it
// loads nothing.
func loadFile(path string, vals map[Hash]uint64) {
	data, err := os.ReadFile(path)
	if err != nil {
		return
	}
	if len(data) < len(ecoMagic)+8+sha256.Size || string(data[:len(ecoMagic)]) != string(ecoMagic) {
		return
	}
	body, csum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sha256.Sum256(body) != Hash(csum) {
		return
	}
	count := binary.LittleEndian.Uint64(body[len(ecoMagic):])
	recs := body[len(ecoMagic)+8:]
	if uint64(len(recs)) != count*40 {
		return
	}
	for i := uint64(0); i < count; i++ {
		rec := recs[i*40:]
		var h Hash
		copy(h[:], rec[:32])
		vals[h] = binary.LittleEndian.Uint64(rec[32:40])
	}
}

// writeFile writes the records atomically (temp + rename), sorted by hash
// so equal caches serialize byte-identically.
func writeFile(path string, vals map[Hash]uint64) error {
	hashes := make([]Hash, 0, len(vals))
	for h := range vals {
		hashes = append(hashes, h)
	}
	sort.Slice(hashes, func(i, j int) bool { return string(hashes[i][:]) < string(hashes[j][:]) })
	buf := make([]byte, 0, len(ecoMagic)+8+40*len(hashes)+sha256.Size)
	buf = append(buf, ecoMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(hashes)))
	for i := range hashes {
		buf = append(buf, hashes[i][:]...)
		buf = binary.LittleEndian.AppendUint64(buf, vals[hashes[i]])
	}
	csum := sha256.Sum256(buf)
	buf = append(buf, csum[:]...)
	if err := resume.WriteFileAtomic(path, buf); err != nil {
		return fmt.Errorf("eco: %w", err)
	}
	return nil
}
