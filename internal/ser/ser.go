// Package ser assembles the full soft-error-rate estimate of the paper:
// SER(n) = R_SEU(n) × P_latched(n) × P_sensitized(n) for every circuit node,
// with the expensive P_sensitized term computed by a pluggable backend from
// the engine registry (the paper's EPP method — scalar or batched —, the
// random-simulation baseline, or an exact backend). It also implements the
// paper's stated use-case: identifying the most vulnerable components and
// evaluating selective hardening.
//
// Prepare validates and resolves one request; its Run is the context-aware
// pipeline entry point, and Stream the incremental sibling that yields one
// NodeSER at a time.
package ser

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/eco"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/latch"
	"repro/internal/netlist"
	"repro/internal/resume"
	"repro/internal/sigprob"
	"repro/internal/simulate"
)

// Method selects the P_sensitized estimator.
type Method int

const (
	// MethodEPP is the paper's propagation-probability analysis.
	MethodEPP Method = iota
	// MethodMonteCarlo is the random-simulation baseline.
	MethodMonteCarlo
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodEPP:
		return "epp"
	case MethodMonteCarlo:
		return "monte-carlo"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// SPMethod selects the signal probability source feeding the EPP engine.
type SPMethod int

const (
	// SPTopological is the fast Parker–McCluskey sweep.
	SPTopological SPMethod = iota
	// SPMonteCarlo is simulation-based signal probability, the accurate
	// design-flow by-product the paper leverages (its cost is "SPT").
	SPMonteCarlo
)

// String names the signal probability method.
func (m SPMethod) String() string {
	switch m {
	case SPTopological:
		return "topological"
	case SPMonteCarlo:
		return "monte-carlo"
	}
	return fmt.Sprintf("SPMethod(%d)", int(m))
}

// ParseMethod inverts Method.String: it maps the canonical method name
// ("epp", "monte-carlo") back to the Method, so flags, JSON and reports all
// share one vocabulary.
func ParseMethod(s string) (Method, error) {
	for _, m := range []Method{MethodEPP, MethodMonteCarlo} {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("ser: unknown method %q (want %q or %q)", s, MethodEPP, MethodMonteCarlo)
}

// ParseSPMethod inverts SPMethod.String ("topological", "monte-carlo").
func ParseSPMethod(s string) (SPMethod, error) {
	for _, m := range []SPMethod{SPTopological, SPMonteCarlo} {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("ser: unknown signal probability method %q (want %q or %q)", s, SPTopological, SPMonteCarlo)
}

// ParseRuleSet inverts core.RuleSet.String ("closed-form", "pairwise",
// "no-polarity"), so flags and reports share the rule-set vocabulary.
func ParseRuleSet(s string) (core.RuleSet, error) {
	for _, r := range []core.RuleSet{core.RulesClosedForm, core.RulesPairwise, core.RulesNoPolarity} {
		if s == r.String() {
			return r, nil
		}
	}
	return 0, fmt.Errorf("ser: unknown rule set %q (want %q, %q or %q)",
		s, core.RulesClosedForm, core.RulesPairwise, core.RulesNoPolarity)
}

// Config configures an SER estimation run.
type Config struct {
	Method   Method
	SPMethod SPMethod
	// Engine overrides the Method-derived P_sensitized backend with a named
	// engine from the registry ("" = epp-batch for MethodEPP, monte-carlo
	// for MethodMonteCarlo). See engine.Names for the registered set.
	Engine string
	// SP configures signal probability computation (bias, vectors, seed).
	SP sigprob.Config
	// MC configures the sampling engines (MethodMonteCarlo or an explicit
	// sampling Engine): the pipeline consumes its Vectors, Seed and
	// SourceProb fields. SharedVectors is ignored: the monte-carlo engine
	// always runs the shared-vector batched kernel.
	MC simulate.MCOptions
	// Faults is the R_SEU model; nil is replaced by faults.Default().
	Faults *faults.Model
	// Latch is the P_latched model; nil is replaced by latch.Default().
	//
	// Setting it explicitly does more than swap the static per-node factor:
	// together with Frames > 1 it couples the latching window into the
	// multi-cycle composition (the engine weights each frame's detection
	// contribution by Latch.FrameWeight — the strike-cycle transient races
	// the capture window, re-launched flip-flop values are full-cycle levels
	// with weight 1). The per-node P_latched factor then becomes the
	// electrical-masking residual (latch.Model.ResidualProbabilities), so
	// the timing window is counted exactly once per path — inside
	// P_sensitized — rather than twice. With Latch nil the multi-cycle
	// analysis keeps the uncoupled composition (every detection counted in
	// full) under the default static factor, matching earlier releases.
	Latch *latch.Model
	// Workers bounds parallelism for the P_sensitized sweep (0 = all cores).
	Workers int
	// Frames, when > 1, replaces the single-cycle P_sensitized with the
	// multi-cycle detection probability within Frames clock cycles
	// (primary-output observation only; errors are followed through
	// flip-flops — the sequential extension). Supported by the analytic
	// engines (the internal/seq composition) and the monte-carlo engine
	// (simulate.MCBatch in multi-cycle mode: the same batched kernel as the
	// single-cycle estimate, with flip-flop state carried across frames);
	// the exact engines reject it. Combine with an explicit Latch model for
	// the latch-window-weighted composition (see Latch).
	Frames int
	// BatchWidth sets the batched EPP engine's lane count (0 = default).
	BatchWidth int
	// Rules selects the EPP engines' gate-rule implementation: the paper's
	// closed-form Table 1 rules (core.RulesClosedForm, default), the
	// pairwise symbol-table fold (core.RulesPairwise, an executable
	// specification with identical results), or the polarity-tracking
	// ablation (core.RulesNoPolarity). Requires an analytic engine and a
	// single-frame analysis.
	Rules core.RuleSet
	// BDDBudget bounds the bdd engine's node count (0 = default).
	BDDBudget int
	// Progress, when non-nil, is called with the number of node units of
	// work finished so far and the total. Site-major engines report after
	// each completed batch; the word-major monte-carlo engine reports after
	// each completed block of up to four 64-vector words, scaled to node
	// units (its per-site results all finalize together at the last
	// block). done is
	// monotonically nondecreasing, reaches total exactly at completion, and
	// calls never overlap. A resumed run starts reporting at the restored
	// unit count. A panic in the callback aborts the sweep with a
	// *engine.SweepPanicError instead of crashing the process.
	Progress func(done, total int)
	// Timeout, when > 0, bounds the whole run: the pipeline context gets a
	// deadline, enforced by the engines at batch/word granularity. An
	// expired deadline surfaces as a *engine.PartialError wrapping
	// context.DeadlineExceeded (errors.Is-testable) with the finalized unit
	// counts.
	Timeout time.Duration
	// MaxSweepNodes, when > 0, bounds the node units of new P_sensitized
	// work one call may perform; see engine.Request.MaxSweepNodes. A
	// budgeted stop surfaces as a *engine.PartialError wrapping
	// engine.ErrBudget. Combined with CheckpointPath, repeated budgeted
	// calls converge to a complete run.
	MaxSweepNodes int
	// CheckpointPath, when non-empty, makes the P_sensitized sweep
	// crash-safe: progress is committed to this file (atomic temp+rename
	// writes, format documented in internal/resume) and a later run of the
	// same configuration resumes from it, producing a Report byte-identical
	// to an uninterrupted run. The file identifies its request by
	// fingerprint; resuming with a different circuit or configuration is an
	// error. Worker count may differ between the interrupted and resumed
	// runs — results are worker-invariant.
	CheckpointPath string
	// CheckpointInterval is the minimum time between checkpoint writes.
	// <= 0 writes after every committed batch or word — maximally durable
	// and deterministic, at the cost of one small file write per unit.
	CheckpointInterval time.Duration
	// ECO, when non-nil, memoizes per-site P_sensitized results across
	// netlist edits: sites whose observation-cone content hash is already
	// cached are restored bit-identically and skipped, so re-estimating an
	// edited circuit (the rank → harden → re-estimate loop) costs only the
	// touched cones. The Report is byte-identical to an uncached run.
	// Requires a configuration whose per-site values are pure functions of
	// cone content: topological signal probabilities with default (nil)
	// source bias, and no checkpoint (the cache already persists results);
	// Validate rejects anything else — use AttachECO for opportunistic
	// attachment. Stream runs uncached (restored ranges would break its
	// ordered emission). Share one cache across runs (it is safe for
	// concurrent use); see internal/eco for the soundness argument.
	ECO *eco.Cache
	// Stats, when non-nil, accumulates the engine's work counters for the
	// run — swept sites/nodes, sampling words, ECO memo hits. One Stats may
	// be shared across runs (counters are atomic); use a fresh Stats per
	// run to measure a single sweep, e.g. to verify an incremental
	// re-estimate swept only the edited region.
	Stats *engine.Stats
}

// EngineName resolves the effective P_sensitized backend this configuration
// selects: the explicit Engine override if set, else the Method's canonical
// engine. It does not validate that the engine exists.
func (cfg *Config) EngineName() string {
	if cfg.Engine != "" {
		return cfg.Engine
	}
	if cfg.Method == MethodMonteCarlo {
		return "monte-carlo"
	}
	return "epp-batch"
}

// Validate rejects contradictory or out-of-range configurations with
// descriptive errors instead of silently ignoring them. c may be nil when no
// circuit is at hand; per-node slice lengths are then not checked.
func (cfg *Config) Validate(c *netlist.Circuit) error {
	switch cfg.Method {
	case MethodEPP, MethodMonteCarlo:
	default:
		return fmt.Errorf("ser: unknown method %v", cfg.Method)
	}
	switch cfg.SPMethod {
	case SPTopological, SPMonteCarlo:
	default:
		return fmt.Errorf("ser: unknown signal probability method %v", cfg.SPMethod)
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("ser: Workers = %d is negative (0 means all cores)", cfg.Workers)
	}
	if cfg.Frames < 0 {
		return fmt.Errorf("ser: Frames = %d is negative (1 means single-cycle)", cfg.Frames)
	}
	if cfg.BatchWidth < 0 || cfg.BatchWidth > core.MaxBatchWidth {
		return fmt.Errorf("ser: BatchWidth = %d outside [0, %d]", cfg.BatchWidth, core.MaxBatchWidth)
	}
	switch cfg.Rules {
	case core.RulesClosedForm, core.RulesPairwise, core.RulesNoPolarity:
	default:
		return fmt.Errorf("ser: unknown rule set %v", cfg.Rules)
	}
	if cfg.MC.Vectors < 0 {
		return fmt.Errorf("ser: MC.Vectors = %d is negative", cfg.MC.Vectors)
	}
	if cfg.SP.Vectors < 0 {
		return fmt.Errorf("ser: SP.Vectors = %d is negative", cfg.SP.Vectors)
	}
	if cfg.BDDBudget < 0 {
		return fmt.Errorf("ser: BDDBudget = %d is negative", cfg.BDDBudget)
	}
	if cfg.Timeout < 0 {
		return fmt.Errorf("ser: Timeout = %v is negative (0 means no deadline)", cfg.Timeout)
	}
	if cfg.MaxSweepNodes < 0 {
		return fmt.Errorf("ser: MaxSweepNodes = %d is negative (0 means no budget)", cfg.MaxSweepNodes)
	}
	eng, err := engine.Lookup(cfg.EngineName())
	if err != nil {
		return err
	}
	if cfg.Method == MethodMonteCarlo && eng.Class() != engine.ClassSampling {
		return fmt.Errorf("ser: engine %q contradicts MethodMonteCarlo (drop the method or pick the monte-carlo engine)", eng.Name())
	}
	if cfg.Frames > 1 && eng.Class() == engine.ClassExact {
		return fmt.Errorf("ser: Frames = %d requires an engine that can follow errors through flip-flops (EPP or monte-carlo); %q cannot", cfg.Frames, eng.Name())
	}
	if cfg.Rules != core.RulesClosedForm {
		if eng.Class() != engine.ClassAnalytic {
			return fmt.Errorf("ser: Rules %v requires an EPP engine; %q does not use propagation rules", cfg.Rules, eng.Name())
		}
		if cfg.Frames > 1 {
			return fmt.Errorf("ser: Rules %v requires a single-frame analysis (the multi-cycle composition is closed-form only)", cfg.Rules)
		}
	}
	// Model cross-checks: an explicit model must be valid up front — for the
	// latch model especially, because with Frames > 1 it also parameterizes
	// the frame composition (the strike-frame capture weight), not just the
	// static per-node factor.
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return err
		}
	}
	if cfg.Latch != nil {
		if err := cfg.Latch.Validate(); err != nil {
			return err
		}
	}
	if err := validBias("SP.SourceProb", cfg.SP.SourceProb, c); err != nil {
		return err
	}
	if err := validBias("MC.SourceProb", cfg.MC.SourceProb, c); err != nil {
		return err
	}
	if cfg.ECO != nil {
		return cfg.ecoEligible()
	}
	return nil
}

// ecoEligible reports whether the configuration may carry an ECO cache:
// the memoization is sound only when each site's P_sensitized value is a
// pure function of its observation-cone content, which requires the default
// topological signal probabilities and unbiased sources (a Monte Carlo SP
// vector or a bias vector is a whole-circuit input that no per-site hash
// covers). A checkpoint is rejected as a conflicting restore source.
func (cfg *Config) ecoEligible() error {
	if cfg.SPMethod != SPTopological {
		return fmt.Errorf("ser: the ECO cache requires topological signal probabilities (SPMethod %v makes SP a whole-circuit input the per-site cone hashes cannot cover)", cfg.SPMethod)
	}
	if cfg.SP.SourceProb != nil || cfg.MC.SourceProb != nil {
		return fmt.Errorf("ser: the ECO cache requires default (nil) source bias (a bias vector is indexed by whole-circuit node IDs, outside the per-site cone hashes)")
	}
	if cfg.CheckpointPath != "" {
		return fmt.Errorf("ser: the ECO cache cannot combine with a checkpoint (pick one restore source; the cache already persists results)")
	}
	return nil
}

// AttachECO attaches the cache to cfg when the configuration is eligible
// (see Config.ECO) and holds none yet. Use it when the caller — a daemon
// serving arbitrary requests, say — wants incremental re-estimation
// opportunistically rather than as a hard requirement: ineligible
// configurations simply run uncached instead of erroring.
func AttachECO(cfg *Config, cache *eco.Cache) {
	if cfg.ECO == nil && cfg.ecoEligible() == nil {
		cfg.ECO = cache
	}
}

// validBias checks a per-source probability vector for range and, when the
// circuit is known, length.
func validBias(field string, bias []float64, c *netlist.Circuit) error {
	if bias == nil {
		return nil
	}
	if c != nil && len(bias) != c.N() {
		return fmt.Errorf("ser: %s has %d entries for %d nodes", field, len(bias), c.N())
	}
	for i, p := range bias {
		if math.IsNaN(p) || p < 0 || p > 1 {
			return fmt.Errorf("ser: %s[%d] = %v outside [0,1]", field, i, p)
		}
	}
	return nil
}

// NodeSER is the per-node soft error rate decomposition. In the
// latch-window-weighted multi-cycle mode (an explicit Latch model with
// Frames > 1) the timing window moves inside PSensitized — weighted per
// detection frame by the engine — and PLatched reports the
// electrical-masking residual instead of the full static factor, keeping
// SERFIT a single-window product either way.
type NodeSER struct {
	ID          netlist.ID
	Name        string
	RateFIT     float64 // R_SEU(n), FIT
	PLatched    float64 // P_latched(n)
	PSensitized float64 // P_sensitized(n)
	SERFIT      float64 // product, FIT
}

// Report is the result of a full-circuit SER estimation.
type Report struct {
	Circuit  string
	Method   Method
	Engine   string    // registry name of the P_sensitized backend used
	Nodes    []NodeSER // indexed by node ID
	TotalFIT float64   // sum over nodes
}

// Prepared is one validated request with its engine, engine request and
// R_SEU / P_latched models resolved once for every step of serving it: Info,
// Run, Stream, Range and Assemble. An analytic engine's signal probabilities
// are resolved by the first step that sweeps or fingerprints and reused by
// every later one; Assemble never needs them. Each step sweeps on its own
// copy of the engine request. A Prepared serves one caller at a time.
type Prepared struct {
	c      *netlist.Circuit
	cfg    Config
	eng    engine.Engine
	req    engine.Request // the template every step copies; SP set by request
	faults faults.Model
	latch  latch.Model
}

// Prepare validates cfg against c and resolves the engine, its request and
// the models, leaving the signal probabilities for the first step that
// needs them.
func Prepare(c *netlist.Circuit, cfg Config) (*Prepared, error) {
	if err := cfg.Validate(c); err != nil {
		return nil, err
	}
	p := &Prepared{c: c, faults: faults.Default(), latch: latch.Default()}
	if cfg.Faults != nil {
		p.faults = *cfg.Faults
	}
	if cfg.Latch != nil {
		p.latch = *cfg.Latch
	}
	eng, err := engine.Lookup(cfg.EngineName())
	if err != nil {
		return nil, err
	}
	p.eng = eng
	if eng.Class() == engine.ClassSampling {
		// Normalize so the report names the method actually used even when
		// the engine was selected directly.
		cfg.Method = MethodMonteCarlo
	}
	p.cfg = cfg
	// The sampling engines draw fault-injection vectors from MC.SourceProb
	// only (an SP-only bias must not leak into the injection vectors); everything else reads the
	// signal-probability bias. WithSourceBias sets both.
	bias := cfg.SP.SourceProb
	if eng.Class() == engine.ClassSampling {
		bias = cfg.MC.SourceProb
	}
	p.req = engine.Request{
		Circuit:       c,
		Bias:          bias,
		Workers:       cfg.Workers,
		BatchWidth:    cfg.BatchWidth,
		Frames:        cfg.Frames,
		Rules:         cfg.Rules,
		Vectors:       cfg.MC.Vectors,
		Seed:          cfg.MC.Seed,
		BDDBudget:     cfg.BDDBudget,
		OnProgress:    cfg.Progress,
		MaxSweepNodes: cfg.MaxSweepNodes,
		Stats:         cfg.Stats,
		// Validate vetted the cache's eligibility (ecoEligible); the engine
		// enforces its own combination rules (no shard, no resume, nil bias).
		Memo: cfg.ECO,
	}
	if cfg.Latch != nil {
		// An explicitly chosen latch model couples the latching window into
		// the multi-cycle composition (the engines consult it only when
		// Frames > 1); the default model keeps the uncoupled composition for
		// compatibility. The static per-node factor always applies.
		p.req.Latch = &p.latch
	}
	if cfg.CheckpointPath != "" {
		p.req.Resume = resume.New(cfg.CheckpointPath, cfg.CheckpointInterval)
	}
	return p, nil
}

// request returns a copy of the engine request for one step. For an
// analytic engine the first call resolves the signal probability vector per
// cfg.SPMethod into the template, so every later copy shares it.
func (p *Prepared) request() engine.Request {
	if p.req.SP == nil && p.eng.Class() == engine.ClassAnalytic {
		resolve := sigprob.Topological
		if p.cfg.SPMethod == SPMonteCarlo {
			resolve = sigprob.MonteCarlo
		}
		p.req.SP = resolve(p.c, p.cfg.SP)
	}
	return p.req
}

// sweep invokes the engine's all-sites sweep on req with the pipeline-level
// deadline applied and a defense-in-depth panic guard: the sweep driver
// recovers worker and callback panics itself, but a panic on an
// engine's synchronous setup path (kernel construction, say) must equally
// surface as an error rather than crash the caller.
func (p *Prepared) sweep(ctx context.Context, req *engine.Request, psens []float64) (err error) {
	if p.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.cfg.Timeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			err = &engine.SweepPanicError{Engine: p.eng.Name(), Unit: "sweep", Lo: -1, Hi: -1, Value: r, Stack: debug.Stack()}
		}
	}()
	return p.eng.PSensitizedAll(ctx, req, psens)
}

// platchVector resolves the per-node P_latched factor: the static
// window+attenuation probability normally; the electrical-masking residual
// when the latching window is coupled into the multi-cycle composition —
// the engines then apply the timing window per detection frame, and
// multiplying the static window in again would count it twice on the
// strike path (and wrongly derate full-cycle later-frame detections).
func (p *Prepared) platchVector() []float64 {
	if p.req.Latch != nil && p.req.Frames > 1 {
		return p.latch.ResidualProbabilities(p.c)
	}
	return p.latch.Probabilities(p.c)
}

// nodeSER assembles one node's SER decomposition from the factor vectors.
func nodeSER(c *netlist.Circuit, id netlist.ID, rates, platch, psens []float64) NodeSER {
	n := NodeSER{
		ID:          id,
		Name:        c.NameOf(id),
		RateFIT:     rates[id],
		PLatched:    platch[id],
		PSensitized: psens[id],
	}
	n.SERFIT = n.RateFIT * n.PLatched * n.PSensitized
	return n
}

// assemble builds the Report from a complete P_sensitized vector: the cheap
// deterministic tail of the pipeline — R_SEU and P_latched factors, the
// per-node products, the ID-order total. Shared by Run and by Assemble (the
// coordinator's fold path) so a Report assembled from shard-merged psens
// values is arithmetically identical to one from a local sweep.
func (p *Prepared) assemble(psens []float64) *Report {
	rates := p.faults.RatesFIT(p.c)
	platch := p.platchVector()
	rep := &Report{Circuit: p.c.Name, Method: p.cfg.Method, Engine: p.eng.Name(), Nodes: make([]NodeSER, p.c.N())}
	for id := range rep.Nodes {
		ns := nodeSER(p.c, netlist.ID(id), rates, platch, psens)
		rep.Nodes[id] = ns
		rep.TotalFIT += ns.SERFIT
	}
	return rep
}

// Run executes the full pipeline — signal probabilities, per-site
// P_sensitized through the configured engine, R_SEU and P_latched models —
// and returns the assembled report. Cancellation of ctx is honored between
// engine batches and returns ctx.Err().
func (p *Prepared) Run(ctx context.Context) (*Report, error) {
	req := p.request()
	psens := make([]float64, p.c.N())
	if err := p.sweep(ctx, &req, psens); err != nil {
		return nil, err
	}
	return p.assemble(psens), nil
}

// Run prepares cfg against c and runs it; see Prepared.Run.
func Run(ctx context.Context, c *netlist.Circuit, cfg Config) (*Report, error) {
	p, err := Prepare(c, cfg)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx)
}

// Assemble builds the Report from an externally computed complete
// P_sensitized vector — the distributed coordinator's fold path: workers
// return shard slices of the same engine sweep, the coordinator stitches
// them into psens, and because engines guarantee packing invariance and this
// tail is deterministic ID-order arithmetic, the result is byte-identical to
// Run on one machine. psens must have one entry per node.
func (p *Prepared) Assemble(psens []float64) (*Report, error) {
	if len(psens) != p.c.N() {
		return nil, fmt.Errorf("ser: psens has %d entries for %d nodes", len(psens), p.c.N())
	}
	return p.assemble(psens), nil
}

// Assemble prepares cfg against c and folds psens; see Prepared.Assemble.
func Assemble(c *netlist.Circuit, cfg Config, psens []float64) (*Report, error) {
	p, err := Prepare(c, cfg)
	if err != nil {
		return nil, err
	}
	return p.Assemble(psens)
}

// Info identifies a request for caching and distribution without running
// it: the request fingerprint (circuit content plus every result-affecting
// option — see engine.Request.Fingerprint), the resolved engine, its class,
// and the normalized method.
type Info struct {
	Fingerprint string
	Engine      string
	Class       engine.Class
	Method      Method
}

// Info returns the request's identity. Two requests with equal fingerprints
// produce byte-identical Reports, which is what makes the fingerprint a
// sound memoization and shard-commit key. The Range shard bounds are
// excluded by construction, so a shard describes as the full sweep it
// belongs to.
func (p *Prepared) Info() Info {
	req := p.request()
	return Info{
		Fingerprint: req.Fingerprint(p.eng.Name(), req.SP),
		Engine:      p.eng.Name(),
		Class:       p.eng.Class(),
		Method:      p.cfg.Method,
	}
}

// Describe prepares cfg against c and returns its identity; see
// Prepared.Info.
func Describe(c *netlist.Circuit, cfg Config) (Info, error) {
	p, err := Prepare(c, cfg)
	if err != nil {
		return Info{}, err
	}
	return p.Info(), nil
}

// Range computes P_sensitized for the node-ID shard [lo, hi) only — the
// distributed worker's unit of work — and returns the hi−lo values in ID
// order. The word-major monte-carlo engine rejects ranges (a shard would
// repeat its shared good simulation; the coordinator runs sampling requests
// whole). Concatenating every shard of [0, N) reproduces the full sweep's
// vector bit-identically at any shard partitioning and worker count.
func (p *Prepared) Range(ctx context.Context, lo, hi int) ([]float64, error) {
	req := p.request()
	req.SiteLo, req.SiteHi = lo, hi
	out := make([]float64, p.c.N())
	if err := p.sweep(ctx, &req, out); err != nil {
		return nil, err
	}
	return out[lo:hi], nil
}

// errStreamStopped signals through the engine that the stream consumer
// broke out of the loop; it is never surfaced to callers.
var errStreamStopped = errors.New("ser: stream consumer stopped")

// Stream is the incremental form of Run: it yields one NodeSER per node in
// ID order as each engine batch completes, without materializing a Report —
// the factor vectors aside, memory stays O(batch). Per-site engines sweep
// single-threaded so emission order is deterministic; the sampling engine
// keeps its internal word-level parallelism (its results finalize together
// and emit in order regardless of worker count). On failure or
// cancellation the final yield carries the error (with a zero NodeSER);
// breaking out of the loop stops the sweep after the current batch.
func (p *Prepared) Stream(ctx context.Context) iter.Seq2[NodeSER, error] {
	return func(yield func(NodeSER, error) bool) {
		c := p.c
		rates := p.faults.RatesFIT(c)
		platch := p.platchVector()
		psens := make([]float64, c.N())
		req := p.request()
		// Stream runs uncached: a memo restore replays hit ranges before the
		// complement is swept, which would break the in-ID-order emission
		// contract. Run keeps the cache; Stream trades it for ordering.
		req.Memo = nil
		// Ordered emission needs OnBatch ranges to be final node-ID ranges.
		// For the per-site engines that means a serial sweep; the sampling
		// engine keeps its word-level parallelism — it finalizes all sites
		// together and emits ordered tiles at the end regardless of worker
		// count, with bit-identical results.
		req.OrderedSweep = true
		if p.eng.Class() != engine.ClassSampling {
			req.Workers = 1
		}
		stopped := false
		req.OnBatch = func(lo, hi int) error {
			for id := lo; id < hi; id++ {
				if !yield(nodeSER(c, netlist.ID(id), rates, platch, psens), nil) {
					stopped = true
					return errStreamStopped
				}
			}
			return nil
		}
		if err := p.sweep(ctx, &req, psens); err != nil && !stopped {
			yield(NodeSER{}, err)
		}
	}
}

// Ranked returns the nodes sorted by SER, most vulnerable first; ties break
// by ID for determinism.
func (r *Report) Ranked() []NodeSER {
	out := append([]NodeSER(nil), r.Nodes...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].SERFIT != out[j].SERFIT {
			return out[i].SERFIT > out[j].SERFIT
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// TopK returns the k most vulnerable nodes (fewer if the circuit is smaller).
func (r *Report) TopK(k int) []NodeSER {
	ranked := r.Ranked()
	if k > len(ranked) {
		k = len(ranked)
	}
	return ranked[:k]
}

// HardeningResult quantifies the effect of protecting a set of nodes.
type HardeningResult struct {
	Protected    []netlist.ID
	BeforeFIT    float64
	AfterFIT     float64
	ReductionPct float64
}

// Harden evaluates the paper's selective-hardening use-case: protect the k
// most vulnerable nodes (e.g. by gate upsizing or local triplication),
// modeled as reducing their R_SEU by the given factor in [0,1] (0 = perfect
// protection), and report the circuit-level SER reduction.
func (r *Report) Harden(k int, residual float64) HardeningResult {
	if residual < 0 {
		residual = 0
	}
	if residual > 1 {
		residual = 1
	}
	top := r.TopK(k)
	res := HardeningResult{BeforeFIT: r.TotalFIT, AfterFIT: r.TotalFIT}
	for _, n := range top {
		res.Protected = append(res.Protected, n.ID)
		res.AfterFIT -= float64(n.SERFIT * (1 - residual)) // rounded: no fused multiply-add
	}
	if res.BeforeFIT > 0 {
		res.ReductionPct = 100 * (res.BeforeFIT - res.AfterFIT) / res.BeforeFIT
	}
	return res
}
