// Package sersim is the public API of the soft-error-rate estimation
// library, a from-scratch reproduction of Asadi & Tahoori, "An Accurate SER
// Estimation Method Based on Propagation Probability" (DATE 2005).
//
// The library decomposes the soft error rate of every circuit node n as
//
//	SER(n) = R_SEU(n) × P_latched(n) × P_sensitized(n)
//
// and computes the expensive P_sensitized term analytically with the paper's
// error propagation probability (EPP) method: a single topological sweep per
// error site over four-valued probability states (Pa, Pā, P0, P1) that track
// the propagated error's polarity, which keeps the estimate accurate at
// reconvergent fanout.
//
// # Quickstart
//
// The whole pipeline is one call: Run parses nothing and hides nothing — it
// takes a circuit, functional options, and a context, and returns the
// per-node report.
//
//	c, err := sersim.ParseBenchFile("s1196.bench")
//	rep, err := sersim.Run(ctx, c)                         // paper defaults
//	rep, err := sersim.Run(ctx, c,
//	        sersim.WithSPMethod(sersim.SPMonteCarlo),      // simulation-grade SP
//	        sersim.WithSeed(7),
//	        sersim.WithWorkers(8))
//	for _, n := range rep.TopK(10) { ... }                 // vulnerability ranking
//
// RunStream is the incremental form: it yields one NodeSER at a time in ID
// order, honoring cancellation between batches, so huge sweeps need not
// materialize a full report:
//
//	for n, err := range sersim.RunStream(ctx, c) {
//	        if err != nil { return err }
//	        consume(n)
//	}
//
// The P_sensitized backend is pluggable: WithMethod picks the estimator
// family (EPP vs Monte Carlo), WithEngine names a specific registered
// backend ("epp-batch", "epp-scalar", "monte-carlo", "enum", "bdd" — see
// Engines), and WithFrames extends the analysis across clock cycles.
// Contradictory option combinations are rejected up front with descriptive
// errors.
//
// # Multi-cycle support by engine
//
// WithFrames(n) for n > 1 replaces the single-cycle P_sensitized (where a
// flip-flop capture counts as a detection) with the multi-cycle detection
// probability: the error is followed through flip-flops for up to n clock
// cycles and only primary-output differences count.
//
//	epp-batch    ✓  analytic frame composition (internal/seq), batched sweeps
//	epp-scalar   ✓  analytic frame composition, one scalar sweep per site
//	monte-carlo  ✓  frame-unrolled batched fault injection (one shared good
//	                simulation per 64-vector word per frame)
//	enum         ✗  rejected (cannot follow errors through flip-flops)
//	bdd          ✗  rejected (cannot follow errors through flip-flops)
//
// The two analytic engines agree to float tolerance; the monte-carlo engine
// agrees with them statistically and with the ground-truth two-machine
// simulator (SequentialMC) bit-exactly under its shared-vector regime.
//
// Combining WithFrames with WithLatchModel runs the latch-window-weighted
// multi-cycle mode on the same three engines: the strike cycle's detection
// contribution — a narrow transient racing the capturing register's window —
// is derated by the model's frame-0 capture weight, while detections in
// later frames are full-cycle flip-flop values and count in full (see
// LatchModel and the examples/latchwindow program).
//
// # Running as a service
//
// cmd/serd wraps Run and RunStream in a long-running HTTP daemon: circuits
// are parsed and finalized once and cached by Circuit.ContentHash, completed
// reports are memoized by request fingerprint, streaming analyses arrive as
// NDJSON per-node tiles, and a coordinator mode shards the site range over
// worker daemons and folds the tiles bit-identically to a local Run (see the
// internal/serd package doc for the determinism argument and the README's
// "Running as a service" section for the protocol).
//
// # Migration from the pre-Run API
//
// The struct-config Estimate(c, EstimateConfig{...}) entry point has been
// removed; Run with options replaces it. So have the Analyzer's all-sites
// methods and MultiCycleAnalyzer's PDetectAll/PDetectAllInto: every
// all-sites EPP sweep runs on the epp-batch engine behind Run. The
// low-level access paths remain: NewAnalyzer serves single-site EPP
// queries; NewMonteCarlo, NewMultiCycleAnalyzer and the Exact* functions
// expose the individual backends directly. Every capability of those entry
// points is reachable through Run/RunStream options:
//
//	Estimate(c, EstimateConfig{Method: MethodMonteCarlo})  → Run(ctx, c, WithMethod(MethodMonteCarlo))
//	Estimate(c, EstimateConfig{Frames: 8})                 → Run(ctx, c, WithFrames(8))
//	NewMonteCarlo(c, MCOptions{Vectors: 4096})             → Run(ctx, c, WithMethod(MethodMonteCarlo), WithVectors(4096))
//	ExactPSensitized / EnumeratePSensitized (per node)     → Run(ctx, c, WithEngine("bdd" /* or "enum" */))
//	an.AllSites() / PSensitizedAll() / AllSitesParallel(n) → Run(ctx, c, WithWorkers(n))
//	mca.PDetectAll(k) / PDetectAllInto(ctx, k, ...)        → Run(ctx, c, WithFrames(k))
//
// The implementation lives in the internal packages (netlist, bench, graph,
// sigprob, core, engine, simulate, exact, faults, latch, ser, gen); this
// package re-exports the stable surface as type aliases so downstream code
// needs a single import.
package sersim

import (
	"context"
	"io"

	"repro/internal/bddsp"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/eco"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/harden"
	"repro/internal/latch"
	"repro/internal/netlist"
	"repro/internal/seq"
	"repro/internal/ser"
	"repro/internal/sigprob"
	"repro/internal/simulate"
)

// Circuit is an immutable gate-level netlist. See Builder and the parsing
// helpers for construction.
type Circuit = netlist.Circuit

// ID is a dense node identifier within a Circuit.
type ID = netlist.ID

// Builder assembles a Circuit programmatically.
type Builder = netlist.Builder

// NewBuilder returns a Builder for a circuit with the given name.
func NewBuilder(name string) *Builder { return netlist.NewBuilder(name) }

// ParseBench parses an ISCAS'89 .bench netlist from r.
func ParseBench(r io.Reader) (*Circuit, error) { return bench.Parse(r) }

// ParseBenchFile parses the .bench file at path.
func ParseBenchFile(path string) (*Circuit, error) { return bench.ParseFile(path) }

// ParseBenchString parses .bench source held in a string.
func ParseBenchString(src string) (*Circuit, error) { return bench.ParseString(src) }

// WriteBench serializes the circuit in .bench format.
func WriteBench(w io.Writer, c *Circuit) error { return bench.Write(w, c) }

// GenerateProfile generates the deterministic synthetic stand-in for a named
// ISCAS'89 circuit (s953 … s38417); see DESIGN.md for the substitution
// rationale.
func GenerateProfile(name string) (*Circuit, error) { return gen.ByName(name) }

// SPConfig configures signal probability computation.
type SPConfig = sigprob.Config

// SignalProbabilities computes per-node signal probabilities with one
// Parker–McCluskey topological sweep (fast, independence-assuming).
func SignalProbabilities(c *Circuit, cfg SPConfig) []float64 {
	return sigprob.Topological(c, cfg)
}

// SignalProbabilitiesMC estimates per-node signal probabilities by
// bit-parallel random simulation (slow, asymptotically exact).
func SignalProbabilitiesMC(c *Circuit, cfg SPConfig) []float64 {
	return sigprob.MonteCarlo(c, cfg)
}

// Analyzer computes error propagation probabilities (the paper's core
// algorithm).
type Analyzer = core.Analyzer

// AnalyzerOptions configure an Analyzer.
type AnalyzerOptions = core.Options

// RuleSet selects the gate-rule implementation used by the EPP sweep (see
// AnalyzerOptions.Rules).
type RuleSet = core.RuleSet

// RuleSet values.
const (
	// RulesClosedForm is the paper's Table 1 product formulas (default).
	RulesClosedForm = core.RulesClosedForm
	// RulesPairwise folds every gate through the exhaustive 4×4 symbol
	// table — equivalent results, an executable specification.
	RulesPairwise = core.RulesPairwise
	// RulesNoPolarity ablates the paper's key idea (polarity tracking).
	RulesNoPolarity = core.RulesNoPolarity
)

// EPPResult is the per-site analysis result.
type EPPResult = core.Result

// NewAnalyzer returns an EPP analyzer over circuit c using the given
// per-node signal probabilities for off-path inputs.
func NewAnalyzer(c *Circuit, sp []float64, opt AnalyzerOptions) (*Analyzer, error) {
	return core.New(c, sp, opt)
}

// MonteCarlo is the random-vector fault-injection baseline estimator.
type MonteCarlo = simulate.MonteCarlo

// MCOptions configure the Monte Carlo estimators.
type MCOptions = simulate.MCOptions

// NewMonteCarlo returns the bit-parallel Monte Carlo baseline for c.
func NewMonteCarlo(c *Circuit, opt MCOptions) *MonteCarlo {
	return simulate.NewMonteCarlo(c, opt)
}

// Report is a full-circuit SER estimation result with ranking and hardening
// evaluation helpers.
type Report = ser.Report

// NodeSER is one node's SER decomposition within a Report.
type NodeSER = ser.NodeSER

// Method selects the P_sensitized estimator family.
type Method = ser.Method

// Method values.
const (
	// MethodEPP is the paper's propagation-probability analysis (default).
	MethodEPP = ser.MethodEPP
	// MethodMonteCarlo is the random-simulation baseline.
	MethodMonteCarlo = ser.MethodMonteCarlo
)

// SPMethod selects the signal probability source feeding the EPP engines.
type SPMethod = ser.SPMethod

// SPMethod values.
const (
	// SPTopological is the fast Parker–McCluskey sweep (default).
	SPTopological = ser.SPTopological
	// SPMonteCarlo is simulation-based signal probability, the accurate
	// design-flow by-product the paper leverages.
	SPMonteCarlo = ser.SPMonteCarlo
)

// ParseMethod maps a canonical method name ("epp", "monte-carlo") back to
// its Method; it inverts Method.String, so flag parsing, JSON output and
// reports share one vocabulary.
func ParseMethod(s string) (Method, error) { return ser.ParseMethod(s) }

// ParseSPMethod maps a canonical signal probability method name
// ("topological", "monte-carlo") back to its SPMethod, inverting
// SPMethod.String.
func ParseSPMethod(s string) (SPMethod, error) { return ser.ParseSPMethod(s) }

// ParseRuleSet maps a canonical rule-set name ("closed-form", "pairwise",
// "no-polarity") back to its RuleSet, inverting RuleSet.String — the
// vocabulary of WithRules and the sercalc -rules flag.
func ParseRuleSet(s string) (RuleSet, error) { return ser.ParseRuleSet(s) }

// FaultModel computes per-node raw SEU rates R_SEU(n); see WithFaultModel.
type FaultModel = faults.Model

// DefaultFaultModel returns the documented default R_SEU model, a useful
// starting point for WithFaultModel customization.
func DefaultFaultModel() FaultModel { return faults.Default() }

// LatchModel computes per-node latching probabilities P_latched(n); see
// WithLatchModel.
type LatchModel = latch.Model

// DefaultLatchModel returns the documented default P_latched model.
func DefaultLatchModel() LatchModel { return latch.Default() }

// ExactSignalProbabilities computes symbolically exact (BDD-based,
// Parker–McCluskey) signal probabilities, with per-source bias prob1 (nil =
// uniform) and a BDD node budget (0 = default). Exact but exponential in the
// worst case; the budget turns blow-ups into errors.
func ExactSignalProbabilities(c *Circuit, prob1 []float64, maxNodes int) ([]float64, error) {
	return bddsp.SignalProb(c, prob1, maxNodes)
}

// ExactPSensitized computes the symbolically exact propagation probability
// of an SEU at site via a BDD miter — the ground truth the EPP method
// approximates. For circuits with at most 24 sources the enumeration engine
// (EnumeratePSensitized) is usually faster.
func ExactPSensitized(c *Circuit, site ID, prob1 []float64, maxNodes int) (float64, error) {
	return bddsp.PSensitized(c, site, prob1, maxNodes)
}

// EnumeratePSensitized computes the exact propagation probability by
// exhaustive input enumeration (uniform sources, at most 24 of them).
func EnumeratePSensitized(c *Circuit, site ID) (float64, error) {
	return exact.PSensitized(c, site)
}

// PartialError reports a sweep that stopped before completion for an
// orderly reason — cancellation, a WithTimeout deadline, or the
// WithMaxSweepNodes budget — with how many node units had finalized. The
// cause (context.Canceled, context.DeadlineExceeded or ErrSweepBudget) is
// reachable through errors.Is/As. With WithCheckpoint the finalized work is
// durable and a re-run resumes from it.
type PartialError = engine.PartialError

// SweepPanicError is a panic recovered inside a sweep — an engine worker or
// a user callback (WithProgress, RunStream consumers) — converted to a
// returned error carrying the failing engine, unit and stack, so a buggy
// callback or one poisoned input cannot crash the process mid-sweep.
type SweepPanicError = engine.SweepPanicError

// ErrSweepBudget is the sentinel wrapped by a *PartialError when a sweep
// stops at its WithMaxSweepNodes budget; test with errors.Is.
var ErrSweepBudget = engine.ErrBudget

// TMR returns a copy of c with the selected gates triplicated behind 2-of-3
// majority voters (local triple modular redundancy), the hardening transform
// the paper's vulnerability ranking is meant to drive. See internal/harden
// for the soft-voter caveat.
func TMR(c *Circuit, selected []ID) (*Circuit, error) {
	return harden.TMR(c, selected)
}

// TMROverhead reports the gate-count cost of a TMR transform protecting k
// gates: 2 replicas + 4 voter gates each.
func TMROverhead(k int) int { return harden.Overhead(k) }

// ECOCache memoizes per-site P_sensitized results across netlist edits,
// keyed by a content hash of each site's observation cone: re-running an
// edited circuit recomputes only the sites whose cones the edit touched and
// restores the rest bit-identically, so the rank → harden → re-estimate
// loop costs O(touched cones) instead of O(full sweep) per iteration.
// Attach one with WithECO (in-process sharing across runs) or WithECOCache
// (directory-backed persistence); see internal/eco for the invalidation
// soundness argument and OptimizeHardening for the packaged loop.
type ECOCache = eco.Cache

// NewECOCache returns an in-memory ECO cache, shared across Run calls
// within the process.
func NewECOCache() *ECOCache { return eco.NewCache() }

// OpenECOCache returns a directory-backed ECO cache: cached results persist
// across processes in <dir>/<request-key>.eco files (atomic writes;
// corrupted files degrade to cache misses, never to stale results).
func OpenECOCache(dir string) (*ECOCache, error) { return eco.Open(dir) }

// ECOChangedSites returns, ascending, every node ID of edited whose
// P_sensitized value may differ from the same ID in base under a
// frames-frame analysis — the netlist differ behind the ECO cache's
// observability counters. IDs not returned are guaranteed unchanged.
func ECOChangedSites(base, edited *Circuit, frames int) []ID {
	return eco.ChangedSites(base, edited, frames)
}

// OptimizeHardening runs the greedy selective-hardening loop: starting from
// a full estimate, repeatedly TMR the highest-SER unprotected gate and
// re-estimate — incrementally, through a shared ECOCache, so each iteration
// sweeps only the cones the TMR touched — until the FIT objective meets the
// budget. See HardenOptimizeConfig for the knobs and HardenResult for the
// per-step audit trail (including swept-site counters).
func OptimizeHardening(ctx context.Context, c *Circuit, cfg HardenOptimizeConfig) (*HardenResult, error) {
	return harden.Optimize(ctx, c, cfg)
}

// HardenOptimizeConfig configures OptimizeHardening.
type HardenOptimizeConfig = harden.OptimizeConfig

// HardenResult is OptimizeHardening's outcome: the hardened circuit, the
// final report, and one HardenStep of audit trail per protected gate.
type HardenResult = harden.Result

// HardenStep records one optimizer iteration: the picked gate, the FIT
// objective before/after, and the engine work counters proving the
// re-estimate was incremental.
type HardenStep = harden.Step

// MultiCycleAnalyzer extends the single-cycle analysis across clock cycles:
// errors captured by flip-flops keep propagating in subsequent frames (the
// sequential extension; see internal/seq).
type MultiCycleAnalyzer = seq.Analyzer

// NewMultiCycleAnalyzer returns a multi-cycle analyzer for c.
func NewMultiCycleAnalyzer(c *Circuit, sp []float64) (*MultiCycleAnalyzer, error) {
	return seq.New(c, sp)
}

// SequentialMC is the two-machine multi-cycle fault-injection simulator used
// to validate the multi-cycle analysis.
type SequentialMC = simulate.Sequential

// SeqOptions configure SequentialMC.
type SeqOptions = simulate.SeqOptions

// NewSequentialMC returns a multi-cycle fault-injection simulator for c.
func NewSequentialMC(c *Circuit, opt SeqOptions) *SequentialMC {
	return simulate.NewSequential(c, opt)
}
