// The engines' resilience layer: the checkpoint/resume and ECO memo
// plumbing shared by the site-major engines, the request fingerprints, node
// budgets, and the structured errors partial sweeps surface. The parallel
// sweep driver itself — span claiming, panic isolation, the budget cut —
// is resume.SweepSpans, shared with the word-major Monte Carlo kernel.

package engine

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
	"runtime/debug"

	"repro/internal/eco"
	"repro/internal/netlist"
	"repro/internal/resume"
)

// ErrBudget is the sentinel wrapped by a *PartialError when a sweep stops at
// its MaxSweepNodes budget; test with errors.Is. It is the sweep driver's
// resume.ErrBudget.
var ErrBudget = resume.ErrBudget

// PartialError reports a sweep that stopped before completion for an
// orderly reason — cancellation, a deadline, or the node budget — together
// with how much work had finalized. Err is the underlying cause
// (context.Canceled, context.DeadlineExceeded or ErrBudget), reachable
// through errors.Is/As via Unwrap. When the request carried a checkpoint,
// the finalized work is durable: re-running the same request resumes from
// Done units.
type PartialError struct {
	Done  int // node units finalized (restored units included)
	Total int // node units of the full sweep
	Err   error
}

// Error summarizes the stop and its progress.
func (e *PartialError) Error() string {
	return fmt.Sprintf("engine: sweep stopped after %d/%d node units: %v", e.Done, e.Total, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *PartialError) Unwrap() error { return e.Err }

// SweepPanicError is a panic recovered from inside a sweep — a worker
// goroutine or a user callback — converted to a returned error; see
// resume.SweepPanicError.
type SweepPanicError = resume.SweepPanicError

// Fingerprint canonically hashes everything that determines the request's
// results for the named engine: the circuit's content hash plus every
// result-affecting option. Pure scheduling knobs — Workers, BatchWidth,
// OrderedSweep, and the SiteLo/SiteHi shard range — are deliberately
// excluded: the engines guarantee results bit-identical across them, so a
// checkpoint written at one worker count resumes correctly at another, and
// shards of one logical sweep computed on different machines all
// fingerprint as that sweep — which is what lets a distributed coordinator
// commit returned shard ranges against a single full-sweep checkpoint. sp
// is the resolved signal probability vector for analytic engines (nil
// otherwise) so that an SP-affecting change upstream is caught even though
// SP is computed, not configured.
func (r *Request) Fingerprint(engineName string, sp []float64) string {
	w := newHashWriter()
	w.str(engineName)
	w.str(r.Circuit.ContentHash())
	r.writeResultOptions(w)
	w.vec(r.Bias)
	w.vec(sp)
	return w.hex()
}

// memoKey is the ECO cache's request identity: every result-affecting
// option of Fingerprint except circuit content and the SP vector, which the
// per-site cone hashes replace — that exclusion is what lets results
// transfer between an edited circuit and its base. Requires the Memo
// soundness contract (nil Bias, default topological SP); see Request.Memo.
// Sampling engines additionally fold in the ordered source-ID list: vector
// streams draw per source in global ascending-ID order, so a source-set
// change shifts every later source's draws even when cones are unchanged.
func (r *Request) memoKey(engineName string, sampling bool) string {
	w := newHashWriter()
	w.str("eco-v1")
	w.str(engineName)
	r.writeResultOptions(w)
	if sampling {
		srcs := r.Circuit.Sources()
		w.i64(int64(len(srcs)))
		for _, id := range srcs {
			w.i64(int64(id))
		}
	}
	return w.hex()
}

// writeResultOptions writes the configured result-affecting options shared
// by Fingerprint and memoKey.
func (r *Request) writeResultOptions(w *hashWriter) {
	w.i64(int64(r.Frames))
	w.i64(int64(r.Vectors))
	w.i64(int64(r.Seed))
	w.i64(int64(r.Rules))
	w.i64(int64(r.BDDBudget))
	if r.Latch == nil {
		w.i64(0)
		return
	}
	w.i64(1)
	w.f64(r.Latch.ClockPeriodPs)
	w.f64(r.Latch.WindowPs)
	w.f64(r.Latch.PulseWidthPs)
	w.f64(r.Latch.AttenuationPerLevel)
}

// hashWriter is the canonical field encoding of the request hashes:
// integers as 8-byte little-endian words, floats as their IEEE-754 bits,
// strings and vectors length-prefixed, all into one SHA-256.
type hashWriter struct {
	h   hash.Hash
	buf [8]byte
}

func newHashWriter() *hashWriter { return &hashWriter{h: sha256.New()} }

func (w *hashWriter) i64(v int64) {
	binary.LittleEndian.PutUint64(w.buf[:], uint64(v))
	w.h.Write(w.buf[:])
}

func (w *hashWriter) f64(v float64) { w.i64(int64(math.Float64bits(v))) }

func (w *hashWriter) str(s string) {
	w.i64(int64(len(s)))
	w.h.Write([]byte(s))
}

func (w *hashWriter) vec(v []float64) {
	w.i64(int64(len(v)))
	for _, x := range v {
		w.f64(x)
	}
}

func (w *hashWriter) hex() string { return fmt.Sprintf("%x", w.h.Sum(nil)) }

// memoFrames normalizes the request's frame count for cone hashing.
func (r *Request) memoFrames() int {
	if r.Frames < 1 {
		return 1
	}
	return r.Frames
}

// memoHashes returns the cone hashes of the request's circuit in the flavor
// the named engine is sound under: the analytic (EPP) engines read only
// cone structure plus signal-probability values, so they use the tighter
// SP-flavor digests (sp is the sweep's own vector); sampling and exact
// engines depend on the full backward structure and use the structural
// flavor. See the internal/eco soundness argument.
func (r *Request) memoHashes(engName string, sp []float64) []eco.Hash {
	if e, err := Lookup(engName); err == nil && e.Class() == ClassAnalytic {
		return r.Memo.AnalyticHashes(r.Circuit, r.memoFrames(), sp)
	}
	return r.Memo.Hashes(r.Circuit, r.memoFrames())
}

// checkRestore enforces, for every engine, how the restore sources (Memo,
// Resume) combine with each other, with source bias and with a site-range
// shard. A word-major engine cannot run a shard at all.
func (r *Request) checkRestore(sharded, wordMajor bool) error {
	switch {
	case sharded && wordMajor:
		// The shared-good-sim kernel is word-major: each 64-vector word costs
		// one full-circuit good simulation amortized across every site, so a
		// site-range shard would re-pay all good simulations per shard —
		// sharding by site only multiplies work. The coordinator runs
		// sampling requests whole instead.
		return fmt.Errorf("engine: monte-carlo does not support a site-range shard (the word-major shared-good-sim kernel amortizes good simulations across all sites; shard by seed or run whole instead)")
	case r.Memo != nil && r.Resume != nil:
		return fmt.Errorf("engine: Memo cannot combine with Resume (pick one restore source; the ECO cache already persists results)")
	case r.Memo != nil && r.Bias != nil:
		return fmt.Errorf("engine: Memo requires nil Bias (per-site values must be pure functions of cone content; see Request.Memo)")
	case sharded && r.Memo != nil:
		return fmt.Errorf("engine: a site-range shard cannot carry an ECO memo cache (the coordinator owns cross-request reuse)")
	case sharded && r.Resume != nil:
		// A shard is one slice of a larger logical sweep whose durability the
		// coordinator owns (it commits returned ranges against the full-sweep
		// checkpoint); a per-shard checkpoint would fingerprint as the full
		// sweep while holding only the slice, so the combination is refused.
		return fmt.Errorf("engine: a site-range shard cannot carry its own checkpoint (the coordinator owns retry durability)")
	}
	return nil
}

// restoreSource is where a site-major sweep restores finished sites from
// and commits newly computed ones to: an armed checkpoint
// (checkpointSource) or the ECO memo cache (memoSource).
type restoreSource interface {
	// RestoreSites writes the stored values into out (indexed by site ID)
	// and returns the restored ID ranges, sorted and disjoint.
	RestoreSites(out []float64) []resume.Range
	// CommitSites records the computed values out[site] of one batch's
	// sites (out is indexed by site ID).
	CommitSites(sites []netlist.ID, out []float64) error
	// Flush persists every commit; the sweep calls it on every exit path.
	Flush() error
}

// checkpointSource is an armed checkpoint as a restoreSource. A
// checkpointed sweep runs in ascending-ID order (Request.sweepOrdered), so
// every batch it commits is one contiguous ID range.
type checkpointSource struct{ *resume.State }

func (c checkpointSource) CommitSites(sites []netlist.ID, out []float64) error {
	lo := int(sites[0])
	hi := lo + len(sites)
	return c.State.CommitSites(lo, hi, out[lo:hi])
}

// memoSource is the ECO cache as a restoreSource: one request key plus the
// per-site cone hashes the values are keyed by.
type memoSource struct {
	cache  *eco.Cache
	key    string
	hashes []eco.Hash
}

func (m memoSource) RestoreSites(out []float64) []resume.Range {
	ranges, _ := m.cache.Lookup(m.key, m.hashes, out)
	return ranges
}

func (m memoSource) CommitSites(sites []netlist.ID, out []float64) error {
	m.cache.Store(m.key, m.hashes, sites, out)
	return nil
}

func (m memoSource) Flush() error { return m.cache.Flush() }

// openRestoreSource returns the request's restore source for a site-major
// sweep of n sites, or nil for a fresh sweep. A corrupt checkpoint (torn
// bytes, failed checksum) has been quarantined to <path>.corrupt by the
// resume layer and arms empty: the sweep restarts fresh rather than folding
// garbage, and the quarantined file keeps the forensic evidence.
func (r *Request) openRestoreSource(engName string, sp []float64, n int) (restoreSource, error) {
	switch {
	case r.Resume != nil:
		rs, _, err := r.Resume.ArmRecovering(engName, r.Fingerprint(engName, sp), resume.KindSites, n)
		if err != nil {
			return nil, err
		}
		return checkpointSource{rs}, nil
	case r.Memo != nil:
		return memoSource{cache: r.Memo, key: r.memoKey(engName, false), hashes: r.memoHashes(engName, sp)}, nil
	}
	return nil, nil
}

// wrapSweepErr finalizes a sweep's error for the engine boundary: panic
// errors get the engine name attached; orderly stops (cancellation,
// deadline, budget) are wrapped in a *PartialError carrying the progress
// metadata; everything else — OnBatch user errors in particular — is
// returned verbatim, preserving the documented errors.Is identity.
func wrapSweepErr(engName string, total, done int, err error) error {
	if err == nil {
		return nil
	}
	var pe *SweepPanicError
	if errors.As(err, &pe) {
		if pe.Engine == "" {
			pe.Engine = engName
		}
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrBudget) {
		return &PartialError{Done: done, Total: total, Err: err}
	}
	return err
}

// siteSweep runs a site-major all-sites sweep for an engine with the full
// resilience layer: restore and replay, pending-span scheduling, per-batch
// commits, the node budget, and final flush. Each worker from newWorker
// computes one batch at a time, given as its site list, and writes every
// site's value to out[site]; out is indexed by site ID. order is the
// engine's preferred sweep order over all sites (the cone-locality
// schedule), or nil for ascending IDs; the engine passes nil when
// Request.sweepOrdered requires ID order. Sweep positions — the spans
// SweepSpans claims and the ranges OnBatch sees — index order, except that
// an unordered sweep with restored sites moves them to the front: positions
// [0, hits) are the restored sites in ascending ID and [hits, N) the misses
// in order, so the misses pack into full-width batches instead of being
// cut at every restored gap. The kernels are packing-invariant, so the
// order never changes results. sp is the engine's resolved signal
// probability vector (nil for non-analytic engines), consumed by the
// request fingerprint and the analytic cone hashes.
func siteSweep(ctx context.Context, req *Request, engName string, sp []float64, chunk int, order []netlist.ID, out []float64, newWorker func() (func(sites []netlist.ID) error, error)) error {
	n := req.Circuit.N()
	lo0, hi0, sharded, err := req.shardRange(n)
	if err != nil {
		return err
	}
	if err := req.checkRestore(sharded, false); err != nil {
		return err
	}
	total := hi0 - lo0
	src, err := req.openRestoreSource(engName, sp, n)
	if err != nil {
		return err
	}
	if order == nil {
		order = siteIDs(n)
	}
	var (
		restored []resume.Range
		doneBase int
	)
	onBatch := req.OnBatch
	if src != nil {
		// Restored sites are bit-identical to computed ones (both sources
		// store IEEE-754 bit patterns). They replay through OnBatch up front
		// so streaming consumers see every site exactly once, the sweep
		// covers the complement, and each fresh batch is committed back
		// before OnBatch sees it.
		restored = src.RestoreSites(out)
		for _, rg := range restored {
			doneBase += rg.Hi - rg.Lo
		}
		if req.Memo != nil && req.Stats != nil {
			req.Stats.MemoHits.Add(int64(doneBase))
		}
		if doneBase > 0 && !req.sweepOrdered() {
			order, restored = packRestored(order, restored)
		}
		if onBatch != nil {
			for _, rg := range restored {
				if err := callOnBatch(onBatch, rg.Lo, rg.Hi); err != nil {
					return wrapSweepErr(engName, total, doneBase, err)
				}
			}
		}
		inner := onBatch
		onBatch = func(lo, hi int) error {
			if err := src.CommitSites(order[lo:hi], out); err != nil {
				return err
			}
			if inner != nil {
				return inner(lo, hi)
			}
			return nil
		}
	}
	maxUnits := 0
	if req.MaxSweepNodes > 0 {
		// The budget bounds this call's new work; restored units are free.
		maxUnits = doneBase + req.MaxSweepNodes
	}
	// Spans start at gap starts, not at chunk multiples; the engines are
	// packing-invariant, so the tiling never changes results.
	spans := resume.Pending(lo0, hi0, chunk, restored)
	done, err := resume.SweepSpans(ctx, spans, total, doneBase, req.Workers, maxUnits, onBatch, req.OnProgress,
		func() (func(lo, hi int) error, error) {
			w, err := newWorker()
			if err != nil {
				return nil, err
			}
			return func(lo, hi int) error {
				if err := w(order[lo:hi]); err != nil {
					return err
				}
				if req.Stats != nil {
					// Count analyzed sites generically: restored sites are
					// not analyzed, so on a memo-assisted run MemoHits +
					// Sites covers the whole sweep.
					req.Stats.Sites.Add(int64(hi - lo))
				}
				return nil
			}, nil
		})
	if src != nil {
		// Flush on every path: after an orderly stop (budget, deadline,
		// cancel) the batches committed since the last write become durable,
		// so a checkpoint composes with a timeout into convergence and even
		// a budgeted memo sweep banks its results.
		if ferr := src.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	return wrapSweepErr(engName, total, done, err)
}

// siteIDs returns the ascending site IDs 0..n-1.
func siteIDs(n int) []netlist.ID {
	ids := make([]netlist.ID, n)
	for i := range ids {
		ids[i] = netlist.ID(i)
	}
	return ids
}

// packRestored reorders an unordered sweep around its restored sites (the
// sorted, disjoint ID ranges restored): the restored sites first in
// ascending ID, then the rest of order with its relative order kept. It
// returns the new order and the one restored position range, [0, hits).
func packRestored(order []netlist.ID, restored []resume.Range) ([]netlist.ID, []resume.Range) {
	packed := make([]netlist.ID, 0, len(order))
	hit := make([]bool, len(order))
	for _, rg := range restored {
		for id := rg.Lo; id < rg.Hi; id++ {
			packed = append(packed, netlist.ID(id))
			hit[id] = true
		}
	}
	hits := len(packed)
	for _, id := range order {
		if !hit[id] {
			packed = append(packed, id)
		}
	}
	return packed, []resume.Range{{Lo: 0, Hi: hits}}
}

// callOnBatch invokes a user OnBatch callback with panic recovery — used
// for checkpoint replay, which runs outside the sweep driver's own
// recovery.
func callOnBatch(onBatch func(lo, hi int) error, lo, hi int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &SweepPanicError{Unit: "batch", Lo: lo, Hi: hi, Value: r, Stack: debug.Stack()}
		}
	}()
	return onBatch(lo, hi)
}

// sweepOrdered reports whether the sweep must run in ascending node-ID
// order: requested explicitly (streaming), forced by a checkpoint (whose
// committed ranges must be ID ranges to be restorable), or forced by a
// site-range shard (whose [SiteLo, SiteHi) bounds are ID bounds, so the
// sweep positions must be IDs, not cone-locality schedule positions). An
// ECO memo does not force it: the memo commits each batch by its site list,
// so a memo-assisted sweep keeps the cone-locality schedule and packs its
// misses into full batches (see siteSweep). The engines' kernels are
// packing-invariant, so the order never changes results.
func (r *Request) sweepOrdered() bool {
	return r.OrderedSweep || r.Resume != nil || r.SiteHi > r.SiteLo
}

// shardRange validates and resolves the request's optional [SiteLo, SiteHi)
// shard range against the circuit's n sites. A range is active iff
// SiteHi > SiteLo; an inactive request sweeps the full [0, n). Engines that
// cannot honor a sub-range (the word-major monte-carlo sampler) reject
// active ranges themselves with a descriptive error.
func (r *Request) shardRange(n int) (lo, hi int, active bool, err error) {
	if r.SiteHi <= r.SiteLo {
		if r.SiteLo != 0 || r.SiteHi != 0 {
			return 0, 0, false, fmt.Errorf("engine: invalid site range [%d, %d): empty or inverted (leave both zero for a full sweep)", r.SiteLo, r.SiteHi)
		}
		return 0, n, false, nil
	}
	if r.SiteLo < 0 || r.SiteHi > n {
		return 0, 0, false, fmt.Errorf("engine: site range [%d, %d) out of bounds for %d sites", r.SiteLo, r.SiteHi, n)
	}
	return r.SiteLo, r.SiteHi, true, nil
}
