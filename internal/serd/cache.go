// The memoized-report cache: every complete report, held as the bytes serd
// serves it as and keyed by the full request fingerprint. Because the
// fingerprint covers every result-affecting input (circuit content, engine,
// frames, vectors, seed, rules, bias, signal probabilities, latch
// parameters), all of a response but a small per-request envelope is a pure
// function of it: the JSON encoding of the report and the NDJSON frames
// after the header line are encoded once, when the report is put, and a hit
// writes them as they are — byte-identical to recomputing.
//
// Each entry also keeps up to maxAliases alias keys: the circuit content
// hash plus the request's full decoded Options, scheduling knobs included.
// A request matching an alias is served without ser.Describe, which would
// otherwise re-resolve the signal probabilities only to recompute the
// fingerprint. An alias is added only after Describe accepted that exact
// request and its fingerprint hit, so a request Describe would reject can
// never match one.
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

// cachedReport is a complete report in the form serd serves it. Every hit
// shares it, so it is never modified after encodeReport.
type cachedReport struct {
	info   ser.Info
	json   []byte // the report's JSON encoding: the "report" value of AnalyzeResponse
	ndjson []byte // the NDJSON frames after the header: node tiles, then the total
}

// encodeReport encodes a complete report both ways serd serves it. The
// frames use the same nodeFrame and json.Encoder as streamLive, so a cached
// stream is byte-identical to the live one after the header line.
func encodeReport(info ser.Info, rep *ser.Report) (*cachedReport, error) {
	js, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	var nd bytes.Buffer
	enc := json.NewEncoder(&nd)
	for i := range rep.Nodes {
		if err := enc.Encode(nodeFrame(&rep.Nodes[i])); err != nil {
			return nil, err
		}
	}
	if err := enc.Encode(&StreamTotal{Type: FrameTotal, Nodes: len(rep.Nodes), TotalFIT: rep.TotalFIT}); err != nil {
		return nil, err
	}
	// Clone so the resident slice is exactly as long as what it is charged.
	return &cachedReport{info: info, json: js, ndjson: bytes.Clone(nd.Bytes())}, nil
}

// maxAliases bounds the alias keys one entry keeps; the oldest goes first.
const maxAliases = 8

// aliasKey identifies a request by everything ser.Describe reads: the
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
