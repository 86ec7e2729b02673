// The encoded form of every report serd sends, and the memoized-report
// cache of the complete ones. A cachedReport holds a report as the bytes of
// its two wire forms: the JSON "report" value of AnalyzeResponse and the
// NDJSON frames after the header line. writeReport sends every response
// from it, wrapping a small per-request envelope around those bytes; the
// live stream sends the same bytes as it encodes them. Because the
// fingerprint covers every result-affecting input (circuit content, engine,
// frames, vectors, seed, rules, bias, signal probabilities, latch
// parameters), the encoded bytes are a pure function of it, so a cache hit
// is byte-identical to recomputing.
//
// Complete reports are memoized under their fingerprint. Each entry also
// keeps up to maxAliases alias keys: the circuit content hash plus the
// request's full decoded Options, scheduling knobs included. A request
// matching an alias is served without ser.Prepare and Info, which would
// otherwise resolve the signal probabilities only to recompute the
// fingerprint. An alias is added only after Prepare accepted that exact
// request and its fingerprint hit, so a rejected request never matches one.
//
// The LRU byte bound charges the encoded bytes plus the alias keys: about
// 6.9 MB per s38417-profile report, so the 64 MiB default holds about nine.

package serd

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"unsafe"

	"repro/internal/lru"
	"repro/internal/ser"
)

// cachedReport is a report in the form serd sends it. Responses and cache
// hits share it, so it is never modified after finishReport.
type cachedReport struct {
	info      ser.Info
	json      []byte  // the report's JSON encoding: the "report" value of AnalyzeResponse
	ndjson    []byte  // the NDJSON frames after the header: node tiles, then the total or partial frame
	uncovered []Range // the holes of a degraded report; empty for a complete one
}

// encodeReport encodes a report both ways serd sends it. A non-empty
// uncovered marks a degraded report covering only the other nodes.
func encodeReport(info ser.Info, rep *ser.Report, uncovered []Range) (*cachedReport, error) {
	var nd bytes.Buffer
	enc := json.NewEncoder(&nd)
	for i := range rep.Nodes {
		if err := enc.Encode(nodeFrame(&rep.Nodes[i])); err != nil {
			return nil, err
		}
	}
	return finishReport(&nd, info, rep, uncovered)
}

// finishReport completes the encoding of a report whose node tiles are in
// nd: it JSON-encodes the report and appends the terminal frame to nd —
// total, or partial when uncovered is non-empty. On error nd is unchanged.
func finishReport(nd *bytes.Buffer, info ser.Info, rep *ser.Report, uncovered []Range) (*cachedReport, error) {
	js, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	var last any = &StreamTotal{Type: FrameTotal, Nodes: len(rep.Nodes), TotalFIT: rep.TotalFIT}
	if len(uncovered) > 0 {
		last = &StreamPartial{Type: FramePartial, Nodes: len(rep.Nodes), TotalFIT: rep.TotalFIT, Uncovered: uncovered}
	}
	if err := json.NewEncoder(nd).Encode(last); err != nil {
		return nil, err
	}
	// Clone so the resident slice is exactly as long as what it is charged.
	return &cachedReport{info: info, json: js, ndjson: bytes.Clone(nd.Bytes()), uncovered: uncovered}, nil
}

// maxAliases bounds the alias keys one entry keeps; the oldest goes first.
const maxAliases = 8

// aliasKey identifies a request by everything ser.Prepare reads: the
// circuit content and the full decoded options. The latch parameters enter
// as bit patterns, as they do in the fingerprint, so -0 and 0 stay apart.
type aliasKey struct {
	hash  string
	opts  Options   // with Latch cleared; see latch
	latch [5]uint64 // 1 if Latch was set, then its four parameters' bits
}

func newAliasKey(hash string, o Options) aliasKey {
	k := aliasKey{hash: hash, opts: o}
	if l := o.Latch; l != nil {
		k.opts.Latch = nil
		k.latch = [5]uint64{1, math.Float64bits(l.ClockPeriodPs), math.Float64bits(l.WindowPs),
			math.Float64bits(l.PulseWidthPs), math.Float64bits(l.AttenuationPerLevel)}
	}
	return k
}

// size is the key's resident size: the struct and its strings' bytes.
func (k aliasKey) size() int64 {
	o := &k.opts
	return int64(unsafe.Sizeof(k)) + int64(len(k.hash)+len(o.Method)+len(o.Engine)+len(o.SPMethod)+len(o.Rules))
}

// reportCache is a byte-bounded LRU of complete reports by fingerprint,
// with alias keys into the same entries.
type reportCache struct {
	mu  sync.Mutex
	lru *lru.Cache[string, aliasKey, *cachedReport]
}

func newReportCache(maxBytes int64) *reportCache {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	return &reportCache{lru: lru.New[string, aliasKey, *cachedReport](maxBytes, maxAliases, aliasKey.size)}
}

// lookup returns the report an alias key points to, counting a hit. A miss
// counts nothing: the caller goes on to the fingerprint lookup.
func (rc *reportCache) lookup(key aliasKey) (*cachedReport, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.lru.Alias(key)
}

// get returns the report for the fingerprint, if resident, and adds key as
// an alias of it.
func (rc *reportCache) get(fp string, key aliasKey) (*cachedReport, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	r, ok := rc.lru.Get(fp)
	if ok {
		rc.lru.AddAlias(fp, key)
	}
	return r, ok
}

// put memoizes a complete report under its fingerprint, evicting LRU
// entries past the byte bound (an oversize single report is still kept —
// the bound protects the steady state).
func (rc *reportCache) put(r *cachedReport) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.lru.Put(r.info.Fingerprint, r, int64(len(r.json)+len(r.ndjson)))
}

// snapshot returns the current counters.
func (rc *reportCache) snapshot() lru.Stats {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.lru.Stats()
}
