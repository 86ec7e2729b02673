// Package engine defines the pluggable P_sensitized backend interface of
// the SER pipeline and a registry of the built-in implementations.
//
// The paper's decomposition SER(n) = R_SEU(n) × P_latched(n) × P_sensitized(n)
// has exactly one expensive term, and this repository grew four independent
// ways to compute it: the scalar EPP sweep (the executable specification of
// the paper's method), the batched union-cone EPP kernel (the production
// path), random-vector fault injection (the baseline the paper compares
// against), and two exact backends (exhaustive enumeration and a BDD
// good/faulty miter). An Engine wraps one of those behind a uniform
// all-sites contract so that pipeline assembly, CLI selection, conformance
// testing and future sharded backends are table-driven rather than
// switch-driven.
//
// All engines honor context cancellation between batches (or between sites
// for the per-site backends) and support incremental result delivery through
// Request.OnBatch, which is what the public streaming API builds on.
package engine

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/eco"
	"repro/internal/latch"
	"repro/internal/netlist"
	"repro/internal/resume"
	"repro/internal/sigprob"
)

// Class groups engines by the nature of their estimate, which determines
// what agreement the conformance suite may demand between them.
type Class int

const (
	// ClassAnalytic engines compute the paper's closed-form EPP
	// approximation: deterministic, linear-time, exact only on fanout-free
	// circuits. All analytic engines must agree with each other to
	// floating-point tolerance.
	ClassAnalytic Class = iota
	// ClassSampling engines estimate by random simulation: unbiased, with
	// ~1/sqrt(vectors) noise. They agree with ClassExact only statistically.
	ClassSampling
	// ClassExact engines compute ground truth (no independence assumption,
	// no sampling). All exact engines must agree with each other to
	// floating-point tolerance.
	ClassExact
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassAnalytic:
		return "analytic"
	case ClassSampling:
		return "sampling"
	case ClassExact:
		return "exact"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Request carries one all-sites P_sensitized computation. The zero value of
// every field except Circuit is usable; engines that do not consume a field
// ignore it.
type Request struct {
	// Circuit is the netlist under analysis. Required.
	Circuit *netlist.Circuit
	// SP is the per-node signal probability vector consumed by the analytic
	// engines for off-path fanins (indexed by node ID). Nil means one
	// Parker–McCluskey topological sweep seeded with Bias.
	SP []float64
	// Bias is the per-source probability of logic 1 (indexed by node ID;
	// nil = 0.5 everywhere). It seeds the default SP computation, the
	// sampling engines' vector sources, and the BDD engine's source
	// probabilities. The enumeration engine supports only uniform sources
	// and rejects a non-nil Bias.
	Bias []float64
	// Workers bounds the engine's parallelism: 0 means all cores, 1 forces
	// a serial sweep. Engines that parallelize guarantee results identical
	// to the serial sweep (batch partitioning is worker-independent).
	Workers int
	// BatchWidth is the lane count for the batched EPP engine (0 = default,
	// clamped to [1, core.MaxBatchWidth]).
	BatchWidth int
	// Frames > 1 replaces the single-cycle P_sensitized with the
	// multi-cycle detection probability within Frames clock cycles: errors
	// are followed through flip-flops and detection means a primary output
	// differs in some frame. The analytic engines compose single-frame EPP
	// sweeps (internal/seq); the monte-carlo engine runs the batched kernel
	// in multi-cycle mode (simulate.NewMCSeqBatch). The exact engines
	// reject it.
	// See Latch for the latching-window coupling of the composition.
	Frames int
	// Latch, when non-nil, couples the latching-window model into the
	// multi-cycle composition (Frames > 1): each frame's primary-output
	// detection contribution is weighted by Latch.FrameWeight(frame) — the
	// strike frame's transient races the capturing register's window
	// (FrameWeight(0)), while frames >= 1 re-launch full-cycle flip-flop
	// values whose weight is identically 1, so only the strike term is
	// derated. The analytic engines scale the strike term of the seq
	// composition; the monte-carlo engine composes the same quantity from
	// the kernel's integer frame counters (SeqResult.PDetectWeighted), so
	// worker invariance and the bit-exact kernel conformance are preserved
	// under weighting. Single-frame requests ignore the field — the
	// per-node static P_latched factor of the SER decomposition lives
	// outside the engines — as do the exact engines (which reject
	// Frames > 1 anyway).
	Latch *latch.Model
	// Vectors is the random-vector budget per site for the sampling
	// engines (0 = simulate default).
	Vectors int
	// Seed fixes the sampling engines' vector streams.
	Seed uint64
	// BDDBudget bounds the BDD engine's node count (0 = default); blow-ups
	// become errors rather than hangs.
	BDDBudget int
	// Rules selects the analytic engines' gate-rule implementation
	// (core.RulesClosedForm, the paper's Table 1 formulas, is the zero
	// default; RulesPairwise and RulesNoPolarity are the documented
	// ablations). Only meaningful for single-frame analytic engines; the
	// sampling and exact engines ignore it, and the multi-cycle path
	// rejects a non-default value.
	Rules core.RuleSet
	// OnBatch, when non-nil, is invoked after each batch of results is
	// finalized. The ranges tile [0, N) exactly, and hi−lo counts newly
	// finalized sites (what progress reporting needs), but [lo:hi) indexes
	// the engine's sweep schedule — only with OrderedSweep set (or a
	// checkpoint or shard, which force ID order) is it also the node-ID
	// range out[lo:hi]. Under a Memo without OrderedSweep the schedule puts
	// the memo-restored sites first, in ascending ID, then the misses in the
	// engine's sweep order: the restored sites replay as one first range
	// [0, hits) and the swept batches tile [hits, N). When Workers allows
	// parallelism the calls may arrive out of order (but never overlap); a
	// non-nil return aborts the sweep and is returned verbatim from
	// PSensitizedAll.
	//
	// The monte-carlo engine finalizes all sites together (its outer loop
	// is over vector words, not sites), so its OnBatch calls all arrive
	// once the sweep completes, tiling [0, N) in ascending node-ID order;
	// cancellation is still honored between blocks of up to four words and
	// incremental progress is reported through OnProgress instead.
	OnBatch func(lo, hi int) error
	// OnProgress, when non-nil, observes sweep progress: done out of total
	// in node units, with done monotonically nondecreasing across calls
	// (which never overlap) and reaching total exactly when the sweep
	// completes.
	// Unlike OnBatch it makes no claim that any result is final — the
	// word-major monte-carlo engine reports each completed block of up to
	// four 64-vector words scaled to node units while every site finalizes
	// together at the end;
	// the site-major engines report after each finalized batch. This is
	// the channel the public WithProgress option rides on.
	OnProgress func(done, total int)
	// OrderedSweep pins the batched EPP engine to ascending node-ID order,
	// making every OnBatch range an ID range with out[lo:hi] final — the
	// streaming API's contract. Without it the engine packs sites by cone
	// locality; the two orders produce bit-identical results (the kernel
	// is packing-invariant), only the work distribution differs.
	OrderedSweep bool
	// Stats, when non-nil, accumulates engine work counters for the sweep
	// (atomically, so one Stats may be shared across requests). The batched
	// EPP engine records swept union-cone nodes and sites; the monte-carlo
	// engine records good simulations and vector words — the ratios that
	// quantify the cone-locality and shared-good-sim savings. The analytic
	// engines' counters do not depend on the worker count, at any frame
	// count: a multi-cycle request sweeps its flip-flop lookahead once,
	// whatever the number of workers. Under a resumed checkpoint the
	// sampling counters reflect the whole logical sweep (restored words
	// included); the site-major counters reflect only the work actually
	// performed by this call.
	Stats *Stats
	// Memo, when non-nil, memoizes per-site results across netlist edits
	// (the ECO cache): before sweeping, every site whose observation-cone
	// hash is cached under this request's memo key is restored from the
	// cache — bit-identical, stored as IEEE-754 bit patterns — and skipped
	// exactly like checkpoint-committed sites (restored ranges replay
	// through OnBatch first, the sweep covers the complement, freshly
	// computed batches are stored back). Engines are packing-invariant, so
	// a memo-assisted sweep is byte-identical to a cold one.
	//
	// Soundness contract (the ser layer enforces it, direct users must):
	// Bias must be nil — the engine rejects the combination — and SP, if
	// set, must be the circuit's default topological vector (nil-bias
	// Parker–McCluskey), because the memo key deliberately excludes circuit
	// content and SP: per-site values are then pure functions of the cone
	// content hashed by internal/eco. Memo cannot combine with Resume
	// (pick one restore source) or with a SiteLo/SiteHi shard (the
	// coordinator owns cross-request reuse). The word-major monte-carlo
	// engine reuses all-or-nothing: a full-circuit hit skips the sweep,
	// any miss recomputes every site (its shared-good-sim kernel prices a
	// sweep by words, not sites), and its memo key folds in the ordered
	// source-ID list (source insertion shifts every later source's vector
	// stream). Site-major engines keep their cone-locality sweep order
	// under a memo: the restored sites leave the schedule and the misses
	// pack into full-width batches, each committed back by its site list,
	// so scattered hits never fragment the swept batches (see OnBatch for
	// the ranges a memo sweep reports); results are unchanged.
	Memo *eco.Cache
	// Resume, when non-nil, makes the sweep crash-safe: completed units
	// (site batches or blocks of 64-vector words) and their integer
	// counters are committed to the checkpoint file at its cadence, and a
	// sweep armed against an existing checkpoint of the same request skips
	// the completed work and folds the saved results in, producing output
	// bit-identical to an uninterrupted run. The checkpoint's fingerprint
	// covers every result-affecting option (circuit content, engine,
	// frames, vectors, seed, rules, bias, SP, latch parameters) but not the
	// scheduling knobs (Workers, BatchWidth, OrderedSweep) — results are
	// worker-invariant, so a checkpoint resumes across machine sizes.
	// Arming against a checkpoint from a different request is an error.
	// Site-major engines force ascending-ID sweep order under a checkpoint
	// (committed ranges must be ID ranges); the kernels are
	// packing-invariant, so results are unchanged.
	Resume *resume.Checkpoint
	// SiteLo/SiteHi, when SiteHi > SiteLo, restrict the sweep to the node-ID
	// shard range [SiteLo, SiteHi) — the distributed coordinator's unit of
	// work. Only out entries inside the range are written (the rest are left
	// untouched), OnBatch ranges tile exactly [SiteLo, SiteHi), and progress
	// and *PartialError metadata count shard units (total = SiteHi−SiteLo).
	// The range is excluded from the request fingerprint — every shard of one
	// logical sweep fingerprints as that sweep — and because the engines are
	// packing-invariant, concatenating shard results reproduces the full
	// sweep bit-identically. A shard cannot carry its own Resume checkpoint
	// (the coordinator owns retry durability), and the word-major monte-carlo
	// engine rejects ranges: its shared-good-sim kernel amortizes one good
	// simulation across all sites per vector word, so sharding by site would
	// duplicate every good simulation in every shard. Both fields zero (the
	// zero value) means a full [0, N) sweep.
	SiteLo, SiteHi int
	// MaxSweepNodes, when > 0, bounds the node units of new work this call
	// may perform (units already restored from a checkpoint are free).
	// Site-major engines stop at the first batch boundary at or past the
	// budget; the word-major monte-carlo engine maps it to a word budget of
	// ceil(MaxSweepNodes × words / N) completed words. The work list is cut
	// before any unit is claimed, so the stop is the same at any worker
	// count. A budgeted stop
	// returns a *PartialError wrapping ErrBudget; combined with Resume,
	// repeated budgeted calls converge to completion.
	MaxSweepNodes int
}

// Stats accumulates engine work counters. All fields are atomic so engines
// may add from concurrent workers; the zero value is ready to use.
type Stats struct {
	// SweptNodes counts union-cone nodes visited by batched sweeps. For a
	// multi-cycle analytic request it includes the one batched sweep of the
	// flip-flop lookahead (the only batched sweep epp-scalar runs), made
	// only when some site is left to sweep; the count is the same at every
	// worker count. For the monte-carlo engine it counts the gates its
	// event-driven sweeps evaluated (the visits simulate.MCBatch.Sweep
	// hands to each block's fold), summed over sites, frames and blocks of
	// four 64-vector words; it covers the words simulated by this call,
	// not those restored from a checkpoint.
	SweptNodes atomic.Int64
	// Sites counts error sites analyzed.
	Sites atomic.Int64
	// GoodSims counts full-circuit good simulations (sampling engines).
	GoodSims atomic.Int64
	// Words counts 64-vector words applied (sampling engines).
	Words atomic.Int64
	// MemoHits counts sites restored from the ECO memo cache instead of
	// swept (Request.Memo). Sites counts only sites actually analyzed, so
	// MemoHits + Sites covers the whole sweep on a memo-assisted run —
	// the ratio is the incremental re-estimation saving.
	MemoHits atomic.Int64
}

// SweptNodesPerSite reports batching efficiency: union-cone nodes swept per
// site analyzed (lower is better; 0 if no sites were recorded).
func (s *Stats) SweptNodesPerSite() float64 {
	if n := s.Sites.Load(); n > 0 {
		return float64(s.SweptNodes.Load()) / float64(n)
	}
	return 0
}

// GoodSimsPerWord reports good-simulation sharing: full-circuit good
// simulations per 64-vector word. The shared-good-sim kernel's invariant
// value is exactly 1; the per-site estimator would cost one per site per
// word.
func (s *Stats) GoodSimsPerWord() float64 {
	if n := s.Words.Load(); n > 0 {
		return float64(s.GoodSims.Load()) / float64(n)
	}
	return 0
}

// sp returns the request's signal probability vector, computing the
// topological default if none was supplied.
func (r *Request) sp() []float64 {
	if r.SP != nil {
		return r.SP
	}
	return sigprob.Topological(r.Circuit, sigprob.Config{SourceProb: r.Bias})
}

// strikeWeight resolves the multi-cycle strike-frame capture weight: 1 (no
// derating) without a latch model, Latch.FrameWeight(0) with one.
func (r *Request) strikeWeight() float64 {
	if r.Latch == nil {
		return 1
	}
	return r.Latch.FrameWeight(0)
}

// Engine computes P_sensitized for every node of a circuit.
type Engine interface {
	// Name is the stable identifier used by CLI -engine flags and the
	// registry. Lower-case, hyphenated.
	Name() string
	// Class reports the engine's estimate class (analytic, sampling,
	// exact), which fixes the agreement the conformance suite demands.
	Class() Class
	// PSensitizedAll writes P_sensitized(id) to out[id] for every node of
	// req.Circuit. len(out) must equal req.Circuit.N(). Cancellation of ctx
	// is honored between batches: the method returns ctx.Err() promptly and
	// out holds a partial result. A non-nil error from req.OnBatch aborts
	// the sweep the same way and is returned verbatim.
	PSensitizedAll(ctx context.Context, req *Request, out []float64) error
}

// engines is the registry of built-in engines, sorted by name.
var engines = []Engine{bddEngine{}, enumEngine{}, batchEngine{}, scalarEngine{}, mcEngine{}}

// Lookup returns the registered engine with the given name, or an error
// naming the registered alternatives.
func Lookup(name string) (Engine, error) {
	for _, e := range engines {
		if e.Name() == name {
			return e, nil
		}
	}
	return nil, fmt.Errorf("engine: unknown engine %q (registered: %v)", name, Names())
}

// Names returns the registered engine names, sorted.
func Names() []string {
	out := make([]string, len(engines))
	for i, e := range engines {
		out[i] = e.Name()
	}
	return out
}

// Engines returns the registered engines sorted by name, for table-driven
// conformance testing.
func Engines() []Engine { return slices.Clone(engines) }

// checkOut validates the request/output pairing shared by every engine.
func checkOut(req *Request, out []float64) error {
	if req.Circuit == nil {
		return fmt.Errorf("engine: nil circuit")
	}
	if len(out) != req.Circuit.N() {
		return fmt.Errorf("engine: output slice has %d entries for %d nodes", len(out), req.Circuit.N())
	}
	return nil
}
